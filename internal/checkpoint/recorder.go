package checkpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sync"
)

// Recorder accumulates completed shard results and persists them to a
// snapshot file at a configurable interval. It is safe for concurrent use
// by fan-out workers, and a nil *Recorder is a valid no-op (lookups miss,
// records are dropped), so call sites need no nil guards.
//
// Shard keys must be stable across runs and worker counts — the experiment
// layer derives them from the experiment name and the item's input index,
// never from scheduling order.
type Recorder struct {
	mu      sync.Mutex
	path    string
	every   int
	snap    *Snapshot
	pending int    // shards recorded since the last copy taken for a write
	hits    int    // lookups served from the snapshot
	copies  uint64 // snapshot copies taken for writing

	// Snapshots are encoded and written under wmu, not mu, so a lookup
	// never waits on an encode, fsync or rename.
	wmu     sync.Mutex
	written uint64                               // number of the newest copy on disk
	write   func(path string, s *Snapshot) error // Write; tests substitute it
}

// snapshotCopy is a numbered copy of the snapshot, taken under mu and
// written outside it.
type snapshotCopy struct {
	snap *Snapshot
	n    uint64
}

// NewRecorder starts a fresh recording to path (overwriting any previous
// snapshot there on first flush). every is the flush interval in completed
// shards; values below 1 flush after every shard.
func NewRecorder(path string, meta Meta, every int) *Recorder {
	if every < 1 {
		every = 1
	}
	return &Recorder{
		path:  path,
		every: every,
		snap:  &Snapshot{Meta: meta, Shards: map[string]json.RawMessage{}},
		write: Write,
	}
}

// Resume loads the snapshot at loadPath and continues recording to
// writePath ("" keeps writing to loadPath). The snapshot's Meta must match
// meta exactly; a mismatch returns an error wrapping ErrMetaMismatch rather
// than silently replaying shards from a different run.
func Resume(loadPath, writePath string, meta Meta, every int) (*Recorder, error) {
	snap, err := Load(loadPath)
	if err != nil {
		return nil, err
	}
	if snap.Meta != meta {
		return nil, fmt.Errorf("%w: snapshot %+v, run %+v", ErrMetaMismatch, snap.Meta, meta)
	}
	if writePath == "" {
		writePath = loadPath
	}
	if every < 1 {
		every = 1
	}
	return &Recorder{path: writePath, every: every, snap: snap, write: Write}, nil
}

// Lookup decodes the recorded result for key into v and reports whether the
// shard was found. A decode failure is an error: the snapshot passed its
// checksum, so a type mismatch means the caller's shard keying is wrong.
func (r *Recorder) Lookup(key string, v any) (bool, error) {
	if r == nil {
		return false, nil
	}
	r.mu.Lock()
	raw, ok := r.snap.Shards[key]
	if ok {
		r.hits++
	}
	r.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("checkpoint: shard %q does not decode into %T: %w", key, v, err)
	}
	return true, nil
}

// Record stores the JSON encoding of v as shard key and flushes the
// snapshot if the interval has elapsed, returning once that flush is on
// disk. Re-recording an existing key (a resumed shard that recomputed
// anyway) is allowed only if the value is byte-identical — anything else is
// a determinism violation worth failing loudly over.
func (r *Recorder) Record(key string, v any) error {
	if r == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding shard %q: %w", key, err)
	}
	r.mu.Lock()
	if prev, ok := r.snap.Shards[key]; ok {
		r.mu.Unlock()
		if string(prev) != string(raw) {
			return fmt.Errorf("checkpoint: shard %q recomputed to a different value; resumed run is not deterministic", key)
		}
		return nil
	}
	r.snap.Shards[key] = raw
	r.pending++
	if r.pending < r.every {
		r.mu.Unlock()
		return nil
	}
	c := r.copyLocked()
	r.mu.Unlock()
	return r.persist(c)
}

// Flush writes the snapshot now, regardless of the interval. It is the
// caller's last act before exiting on an error, deadline or stall, so the
// on-disk snapshot covers every completed shard.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c := r.copyLocked()
	r.mu.Unlock()
	return r.persist(c)
}

// copyLocked takes the next numbered snapshot copy; callers hold r.mu.
// Recorded shard bytes are never modified, so the copy shares them.
func (r *Recorder) copyLocked() snapshotCopy {
	r.copies++
	r.pending = 0
	return snapshotCopy{snap: &Snapshot{Meta: r.snap.Meta, Shards: maps.Clone(r.snap.Shards)}, n: r.copies}
}

// persist writes c unless a newer copy is already on disk: shards are only
// ever added, so that file holds every shard c does, and writing c would
// rename an older snapshot over it.
func (r *Recorder) persist(c snapshotCopy) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if c.n <= r.written {
		return nil
	}
	if err := r.write(r.path, c.snap); err != nil {
		return err
	}
	r.written = c.n
	return nil
}

// Export returns a deep copy of the recorder's current snapshot — the
// cache-transfer payload a fleet sibling fetches to warm a restarted node.
// The copy shares no state with the recorder, so the caller may serialize
// it without holding any lock.
func (r *Recorder) Export() *Snapshot {
	if r == nil {
		return &Snapshot{Shards: map[string]json.RawMessage{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Snapshot{Meta: r.snap.Meta, Shards: make(map[string]json.RawMessage, len(r.snap.Shards))}
	for k, v := range r.snap.Shards {
		out.Shards[k] = append(json.RawMessage(nil), v...)
	}
	return out
}

// DecodeExport parses a sibling's cache-export payload (the plain-JSON
// Snapshot served at /v1/cache/export) strictly: unknown fields, trailing
// garbage, and non-JSON input all fail with an error wrapping ErrCorrupt.
// Note this is the *wire* format, not the versioned on-disk checkpoint
// format Decode handles — the export travels inside an HTTP response whose
// digest envelope supplies the corruption check a file header would.
// Strictness matters because the payload crossed a network: a body that
// passed its digest but does not parse exactly means the producer and
// consumer disagree about the schema, and adopting a best-effort reading of
// it into the cache would launder that disagreement into served results.
func DecodeExport(data []byte) (*Snapshot, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: cache export: %v", ErrCorrupt, err)
	}
	// A cache export is exactly one JSON document; trailing bytes beyond
	// insignificant whitespace mean a truncated or concatenated payload.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("%w: cache export: trailing data after snapshot", ErrCorrupt)
	}
	if s.Shards == nil {
		s.Shards = map[string]json.RawMessage{}
	}
	return &s, nil
}

// Merge imports a sibling's exported snapshot: every shard absent locally is
// adopted, byte-identical duplicates are ignored, and a key whose bytes
// differ from the local recording aborts the whole merge — two replicas of a
// deterministic service disagreeing on the same key means one of them is
// corrupt, and warming from it would spread the corruption. The sibling's
// Meta must match exactly (wrapping ErrMetaMismatch otherwise), so a cache
// recorded under a different scale, seed or chaos mode is never adopted.
// Returns the number of shards added; the snapshot is flushed when any were.
func (r *Recorder) Merge(snap *Snapshot) (int, error) {
	if r == nil || snap == nil {
		return 0, nil
	}
	r.mu.Lock()
	if snap.Meta != r.snap.Meta {
		r.mu.Unlock()
		return 0, fmt.Errorf("%w: sibling %+v, local %+v", ErrMetaMismatch, snap.Meta, r.snap.Meta)
	}
	for k, v := range snap.Shards {
		if prev, ok := r.snap.Shards[k]; ok && string(prev) != string(v) {
			r.mu.Unlock()
			return 0, fmt.Errorf("checkpoint: merge shard %q disagrees with local recording; refusing sibling cache", k)
		}
	}
	added := 0
	for k, v := range snap.Shards {
		if _, ok := r.snap.Shards[k]; ok {
			continue
		}
		r.snap.Shards[k] = append(json.RawMessage(nil), v...)
		added++
	}
	if added == 0 {
		r.mu.Unlock()
		return 0, nil
	}
	c := r.copyLocked()
	r.mu.Unlock()
	return added, r.persist(c)
}

// Shards returns the number of completed shards currently recorded
// (including those loaded by Resume).
func (r *Recorder) Shards() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.snap.Shards)
}

// Hits returns how many lookups were served from the snapshot — the number
// of shards a resumed run did not recompute.
func (r *Recorder) Hits() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits
}

// Path returns the snapshot file the recorder writes to.
func (r *Recorder) Path() string {
	if r == nil {
		return ""
	}
	return r.path
}

// ctxKey keys the package's context values.
type ctxKey int

const (
	recorderKey ctxKey = iota
	watchdogKey
)

// WithRecorder returns a context carrying r. Experiment fan-outs find it
// with RecorderFrom and memoize their shards through it; a context without
// a recorder runs everything uncheckpointed.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey, r)
}

// RecorderFrom returns the context's recorder, or nil (a valid no-op
// recorder) when none is attached.
func RecorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}

// WithWatchdog returns a context carrying w; experiment fan-outs report
// shard start/end to it so stalled shards are detected.
func WithWatchdog(ctx context.Context, w *Watchdog) context.Context {
	return context.WithValue(ctx, watchdogKey, w)
}

// WatchdogFrom returns the context's watchdog, or nil (a valid no-op
// watchdog) when none is attached.
func WatchdogFrom(ctx context.Context) *Watchdog {
	w, _ := ctx.Value(watchdogKey).(*Watchdog)
	return w
}
