package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/pmem/mmapdev"
)

// The designated backend-portability subset: the identical core/funcds
// stack, built through core.Open(WithDevices), over the mmap backend —
// a real file instead of the simulator. These tests skip on platforms
// without the backend.

// mmapDevFor creates a file-backed device under the test's temp dir.
func mmapDevFor(t *testing.T, name string, size int64) (*mmapdev.Device, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	d, err := mmapdev.Create(path, size)
	if errors.Is(err, mmapdev.ErrUnsupported) {
		t.Skip("mmap backend unsupported on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	return d, path
}

// TestMmapBackendStructures drives all five recoverable structures over
// a file-backed store, closes it cleanly, and recovers from the file
// with WithAttach.
func TestMmapBackendStructures(t *testing.T) {
	dev, path := mmapDevFor(t, "store.pm", 16<<20)
	db, info, err := Open(pmem.Config{}, WithDevices(dev))
	if err != nil {
		t.Fatalf("open over mmap: %v", err)
	}
	if info.Recovered {
		t.Fatal("fresh device open reported Recovered")
	}

	m, err := db.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Set("s")
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Vector("v")
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Stack("st")
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Queue("q")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		m.Set([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
		s.Insert([]byte(fmt.Sprintf("e%03d", i)))
		v.Push(uint64(i) * 3)
		st.Push(uint64(i))
		q.Enqueue(uint64(i))
	}
	m.Delete([]byte("k001"))
	s.Delete([]byte("e001"))
	st.Pop()
	q.Dequeue()
	db.Sync()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// Reattach to the file: everything committed must be there.
	dev2, err := mmapdev.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	db2, info2, err := Open(pmem.Config{}, WithDevices(dev2), WithAttach())
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer db2.Close()
	if !info2.Recovered {
		t.Fatal("attach did not report Recovered")
	}

	m2, _ := db2.Map("m")
	s2, _ := db2.Set("s")
	v2, _ := db2.Vector("v")
	st2, _ := db2.Stack("st")
	q2, _ := db2.Queue("q")
	for i := 0; i < n; i++ {
		want, wantOK := fmt.Sprintf("v%03d", i), i != 1
		got, ok := m2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if ok != wantOK || (ok && string(got) != want) {
			t.Fatalf("map key %d after attach: %q %v", i, got, ok)
		}
		if s2.Contains([]byte(fmt.Sprintf("e%03d", i))) != wantOK {
			t.Fatalf("set element %d after attach: presence != %v", i, wantOK)
		}
		if got := v2.Get(uint64(i)); got != uint64(i)*3 {
			t.Fatalf("vector[%d] after attach = %d", i, got)
		}
	}
	if got := v2.Len(); got != n {
		t.Fatalf("vector len after attach = %d", got)
	}
	if top, ok := st2.Peek(); !ok || top != n-2 {
		t.Fatalf("stack top after attach = %d, %v", top, ok)
	}
	if front, ok := q2.Peek(); !ok || front != 1 {
		t.Fatalf("queue front after attach = %d, %v", front, ok)
	}

	// The recovered store must stay writable on the same file.
	m2.Set([]byte("post"), []byte("attach"))
	db2.Sync()
	if got, ok := m2.Get([]byte("post")); !ok || string(got) != "attach" {
		t.Fatalf("post-attach write lost: %q %v", got, ok)
	}
}

// TestMmapBackendSharded formats a sharded store over one file per
// shard, then reattaches the whole set.
func TestMmapBackendSharded(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	var devs []pmem.Backend
	var paths []string
	for i := 0; i < shards; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.pm", i))
		d, err := mmapdev.Create(path, 8<<20)
		if errors.Is(err, mmapdev.ErrUnsupported) {
			t.Skip("mmap backend unsupported on this platform")
		}
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		paths = append(paths, path)
	}
	db, _, err := Open(pmem.Config{}, WithDevices(devs...))
	if err != nil {
		t.Fatalf("sharded open over mmap: %v", err)
	}
	if db.ShardCount() != shards {
		t.Fatalf("ShardCount = %d", db.ShardCount())
	}
	m, err := db.Map("users")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Set([]byte(fmt.Sprintf("u%03d", i)), []byte(fmt.Sprintf("x%03d", i)))
	}
	db.Sync()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if err := d.(*mmapdev.Device).Close(); err != nil {
			t.Fatal(err)
		}
	}

	var devs2 []pmem.Backend
	for _, path := range paths {
		d, err := mmapdev.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		devs2 = append(devs2, d)
	}
	db2, info, err := Open(pmem.Config{}, WithDevices(devs2...), WithAttach())
	if err != nil {
		t.Fatalf("sharded attach: %v", err)
	}
	defer db2.Close()
	if !info.Recovered || len(info.PerShard) != shards {
		t.Fatalf("attach info = %+v", info)
	}
	m2, err := db2.Map("users")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got, ok := m2.Get([]byte(fmt.Sprintf("u%03d", i))); !ok || string(got) != fmt.Sprintf("x%03d", i) {
			t.Fatalf("shard-distributed key %d after attach: %q %v", i, got, ok)
		}
	}
}

// TestMmapBackendCrashSmoke is a checker history over the mmap backend:
// 24 Map.Sets on a file-backed store, cut at every 25th PM write (the
// image is a full copy whatever the policy — the backend's most
// permissive crash view). Each image is dumped to a file of its own and
// attached through the backend.
func TestMmapBackendCrashSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crash smoke is not short")
	}
	h := &crashHist{roots: []histRoot{{name: "crash", bind: mxBind((*Store).Map, mxMapOps)}}, stride: 25}
	h.open = func() []pmem.Backend {
		dev, _ := mmapDevFor(t, "crash.pm", 1<<20)
		t.Cleanup(func() { dev.Close() })
		return []pmem.Backend{dev}
	}
	h.recoverOn = func(imgs [][]byte) []pmem.Backend {
		path := filepath.Join(t.TempDir(), "crashed.pm")
		if err := os.WriteFile(path, imgs[0], 0o644); err != nil {
			panic(err)
		}
		dev, err := mmapdev.Open(path)
		if err != nil {
			panic(err)
		}
		t.Cleanup(func() { dev.Close() })
		return []pmem.Backend{dev}
	}
	h.window = func(e *histEnv, r *histRec) {
		for i := 0; i < 24; i++ {
			r.do(fmt.Sprint("set", i), e.effs(0, i, i+1), func() { e.ops[0].basic(i) })
		}
	}
	h.run(t)
}
