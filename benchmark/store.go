package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/pmem/mmapdev"
)

// Arena sizes. The simulator arena is what cmd/modserver uses by default;
// the mmap file is smaller because the crash check copies it to a second
// file once per timed recovery.
const (
	simArena  = 256 << 20
	mmapArena = 64 << 20
)

// errMemoryFS refuses to run the mmap workload where msync costs nothing.
var errMemoryFS = errors.New("data directory is on a memory filesystem, where msync is free and the mmap workload measures nothing; pass -dir on a disk-backed filesystem")

// refuseMemoryFS returns errMemoryFS if dir's filesystem type fs is one
// that lives in memory.
func refuseMemoryFS(dir, fs string) error {
	if fs == "tmpfs" || fs == "ramfs" {
		return fmt.Errorf("%s is %s: %w", dir, fs, errMemoryFS)
	}
	return nil
}

func simConfig() pmem.Config {
	cfg := pmem.DefaultConfig(simArena)
	cfg.TrackDurable = true // the crash check reads the fenced-only image
	return cfg
}

// stack is one open store and the backend under it.
type stack struct {
	db   *core.DB
	mm   *mmapdev.Device // the file backend; nil on the simulator
	path string          // its file
}

// openStack formats a fresh store through core.Open: on the simulator,
// or with mmap on a new file in dir. wrap, when non-nil, decorates the
// backend before core sees it (trace mode).
func openStack(mmap bool, dir string, wrap func(pmem.Backend) pmem.Backend, opts ...core.Option) (*stack, error) {
	s := &stack{}
	var dev pmem.Backend
	if mmap {
		f, err := os.CreateTemp(dir, "store-*.pm")
		if err != nil {
			return nil, err
		}
		s.path = f.Name()
		f.Close()
		if s.mm, err = mmapdev.Create(s.path, mmapArena); err != nil {
			os.Remove(s.path)
			return nil, err
		}
		dev = s.mm
	} else if wrap != nil {
		dev = pmem.New(simConfig())
	}
	if dev != nil {
		if wrap != nil {
			dev = wrap(dev)
		}
		opts = append(opts, core.WithDevices(dev))
	}
	db, _, err := core.Open(simConfig(), opts...)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("open store: %w", err)
	}
	s.db = db
	return s, nil
}

// close shuts the store and removes its file.
func (s *stack) close() error {
	err := s.db.Close()
	if s.mm != nil {
		err = errors.Join(err, s.mm.Close(), os.Remove(s.path))
	}
	return err
}

// crashImage is the store as a power failure would leave it: on the
// simulator only the bytes a fence made durable; on mmap a copy of the
// mapping, the only image that backend offers.
func (s *stack) crashImage(seed int64) [][]byte {
	return s.db.CrashImages(pmem.CrashFencedOnly, uint64(seed))
}

// reopen recovers a store from img through core.Open and returns it with
// the wall time of that call. On mmap the image is first written to a
// second file in dir, outside the timed call.
func reopen(img [][]byte, mmap bool, dir string) (*stack, core.RecoveryInfo, time.Duration, error) {
	s := &stack{}
	cfg := pmem.DefaultConfig(simArena)
	opts := []core.Option{core.WithExistingImages(img)}
	if mmap {
		s.path = filepath.Join(dir, "crash.pm")
		if err := os.WriteFile(s.path, img[0], 0o644); err != nil {
			return nil, core.RecoveryInfo{}, 0, err
		}
		var err error
		if s.mm, err = mmapdev.Open(s.path); err != nil {
			os.Remove(s.path)
			return nil, core.RecoveryInfo{}, 0, err
		}
		cfg = pmem.Config{}
		opts = []core.Option{core.WithDevices(s.mm), core.WithAttach()}
	}
	t0 := time.Now()
	db, info, err := core.Open(cfg, opts...)
	took := time.Since(t0)
	if err != nil {
		s.close()
		return nil, info, took, fmt.Errorf("reopen crash image: %w", err)
	}
	s.db = db
	return s, info, took, nil
}
