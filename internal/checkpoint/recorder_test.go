package checkpoint

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestRecorderLookupDuringWrite: a due flush encodes and writes outside the
// mutex Lookup takes, so a lookup — of the very shard being written —
// returns while the write is blocked, and Record returns only once its
// flush is on disk.
func TestRecorderLookupDuringWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r := NewRecorder(path, testMeta, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	r.write = func(path string, s *Snapshot) error {
		close(entered)
		<-release
		return Write(path, s)
	}
	recorded := make(chan error, 1)
	go func() { recorded <- r.Record("robustness/00000", 1.5) }()
	<-entered

	looked := make(chan bool, 1)
	go func() {
		var v float64
		ok, err := r.Lookup("robustness/00000", &v)
		looked <- ok && err == nil && v == 1.5
	}()
	select {
	case ok := <-looked:
		if !ok {
			t.Error("Lookup missed the shard whose flush is in progress")
		}
	case <-time.After(10 * time.Second):
		unblock()
		<-looked
		t.Fatal("Lookup waited on the blocked snapshot write")
	}
	select {
	case err := <-recorded:
		t.Fatalf("Record returned (err %v) before its flush reached disk", err)
	default:
	}
	unblock()
	if err := <-recorded; err != nil {
		t.Fatal(err)
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) != 1 {
		t.Fatalf("snapshot on disk holds %d shards, want 1", len(snap.Shards))
	}
}

// TestRecorderOverlappingFlushesKeepNewest: when one flush has copied the
// snapshot but not yet written it, and a second flush copies and writes a
// newer one meanwhile, the first must not rename its older copy over the
// newer file.
func TestRecorderOverlappingFlushesKeepNewest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r := NewRecorder(path, testMeta, 1)
	writes := 0
	r.write = func(path string, s *Snapshot) error {
		writes++
		return Write(path, s)
	}
	if err := r.Record("robustness/00000", 1); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	stale := r.copyLocked()
	r.mu.Unlock()
	if err := r.Record("robustness/00001", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.persist(stale); err != nil {
		t.Fatal(err)
	}
	if writes != 2 {
		t.Errorf("%d snapshot writes, want 2: the older copy was written after the newer", writes)
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("snapshot on disk holds %d shards, want the newer copy's 2", len(snap.Shards))
	}
}
