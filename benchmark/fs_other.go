//go:build !linux

package main

// fsType cannot tell filesystems apart off Linux (where the mmap backend
// does not build either).
func fsType(dir string) (string, error) { return "unknown", nil }
