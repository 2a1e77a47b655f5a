//go:build linux

package main

import (
	"fmt"
	"syscall"
)

// fsType names the filesystem holding dir. msync is free on tmpfs and
// costs a journal commit on ext4, so every mmap number is only
// comparable with others taken on the same filesystem type.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0x858458f6:
		return "ramfs", nil
	case 0xef53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683e:
		return "btrfs", nil
	case 0x794c7630:
		return "overlayfs", nil
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), nil
}
