package workload

import (
	"strings"
	"testing"
	"testing/quick"

	"symbios/internal/trace"
)

// TestProfilesValid: every registered benchmark builds a valid stream.
func TestProfilesValid(t *testing.T) {
	for _, name := range Names() {
		spec := MustLookup(name)
		if spec.Name != name {
			t.Errorf("%s: spec.Name = %q", name, spec.Name)
		}
		if err := spec.Params.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := NewJob(spec, 0, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestMultithreadedRegistry: the parallel jobs have the documented shapes.
func TestMultithreadedRegistry(t *testing.T) {
	cases := map[string]struct {
		threads int
		sync    uint64
	}{
		"ARRAY":    {2, 400},
		"ARRAY2":   {2, 2_000_000},
		"mt_ARRAY": {2, 2000},
		"mt_EP":    {2, 100_000},
	}
	for name, want := range cases {
		spec := MustLookup(name)
		if spec.Threads != want.threads || spec.SyncEvery != want.sync {
			t.Errorf("%s: threads=%d sync=%d, want %d/%d",
				name, spec.Threads, spec.SyncEvery, want.threads, want.sync)
		}
	}
}

// TestWithThreads re-targets a spec without mutating the registry.
func TestWithThreads(t *testing.T) {
	orig := MustLookup("mt_EP")
	re := orig.WithThreads(1)
	if re.Threads != 1 {
		t.Errorf("WithThreads(1) gave %d", re.Threads)
	}
	if MustLookup("mt_EP").Threads != orig.Threads {
		t.Error("WithThreads mutated the registry")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithThreads(0) did not panic")
		}
	}()
	orig.WithThreads(0)
}

// TestMixTaskCounts: each registered mix's X matches its label.
func TestMixTaskCounts(t *testing.T) {
	for _, label := range MixLabels() {
		mix := MustMix(label)
		// Parse X from "Jmn(X,Y,Z)".
		open := strings.Index(label, "(")
		var x, y, z int
		if _, err := sscanf(label[open:], &x, &y, &z); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if mix.Tasks() != x {
			t.Errorf("%s: Tasks() = %d, want %d", label, mix.Tasks(), x)
		}
		if mix.SMTLevel != y || mix.Swap != z {
			t.Errorf("%s: Y=%d Z=%d, want %d/%d", label, mix.SMTLevel, mix.Swap, y, z)
		}
	}
	if _, err := MixByLabel("Jxx(1,1,1)"); err == nil {
		t.Error("unknown mix accepted")
	}
}

// sscanf parses "(X,Y,Z)".
func sscanf(s string, x, y, z *int) (int, error) {
	n := 0
	cur := 0
	sign := false
	vals := []*int{x, y, z}
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			cur = cur*10 + int(c-'0')
			sign = true
		case c == ',' || c == ')':
			if sign {
				*vals[n] = cur
				n++
				cur, sign = 0, false
			}
			if n == 3 {
				return n, nil
			}
		}
	}
	return n, nil
}

// TestBuildDeterminism: the same seed builds byte-identical streams.
func TestBuildDeterminism(t *testing.T) {
	mix := MustMix("Jsb(6,3,3)")
	a, err := mix.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mix.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for seq := uint64(0); seq < 100; seq++ {
			if a[i].sources[0].At(seq) != b[i].sources[0].At(seq) {
				t.Fatalf("job %d diverges at seq %d", i, seq)
			}
		}
	}
}

// TestJobThreadsShareSpaceDistinctStreams: threads of one job share an
// address region but execute different instruction streams.
func TestJobThreadsShareSpaceDistinctStreams(t *testing.T) {
	job := MustNewJob(MustLookup("ARRAY2"), 3, 77)
	var addr0, addr1 uint64
	same := 0
	for seq := uint64(0); seq < 2000; seq++ {
		a, b := job.sources[0].At(seq), job.sources[1].At(seq)
		if a == b {
			same++
		}
		if a.Op.IsMem() && addr0 == 0 {
			addr0 = a.Addr
		}
		if b.Op.IsMem() && addr1 == 0 {
			addr1 = b.Addr
		}
	}
	if same > 100 {
		t.Errorf("sibling threads nearly identical: %d/2000 equal instructions", same)
	}
	// Shared space: addresses land in the same 1TB region.
	if addr0>>40 != addr1>>40 {
		t.Errorf("sibling threads in different address spaces: %#x vs %#x", addr0, addr1)
	}
}

// TestSyncMarkers: the thread source inserts SYNC with the barrier ordinal
// encoded, exactly every SyncEvery instructions.
func TestSyncMarkers(t *testing.T) {
	job := MustNewJob(MustLookup("ARRAY"), 0, 5)
	every := MustLookup("ARRAY").SyncEvery
	src := job.sources[0]
	for k := uint64(0); k < 5; k++ {
		seq := (k+1)*every - 1
		in := src.At(seq)
		if in.Op != trace.SYNC {
			t.Fatalf("no SYNC at seq %d", seq)
		}
		if in.Seq != k {
			t.Errorf("barrier ordinal %d at seq %d, want %d", in.Seq, seq, k)
		}
		if src.At(seq-1).Op == trace.SYNC {
			t.Errorf("stray SYNC at seq %d", seq-1)
		}
	}
}

// TestBarrierGroupSemantics: TryPass is idempotent and releases only when
// every thread has arrived.
func TestBarrierGroupSemantics(t *testing.T) {
	g := NewBarrierGroup(3)
	if g.TryPass(0, 0) {
		t.Error("released with one arrival")
	}
	if g.TryPass(0, 0) {
		t.Error("idempotent re-arrival released the barrier")
	}
	if g.TryPass(1, 0) {
		t.Error("released with two arrivals")
	}
	if !g.TryPass(2, 0) {
		t.Error("not released with all arrivals")
	}
	// Re-query after release (a squashed thread re-arrives): still open.
	if !g.TryPass(0, 0) {
		t.Error("release not idempotent")
	}
	// Next barrier requires everyone again.
	if g.TryPass(0, 1) {
		t.Error("barrier 1 released early")
	}
	got := g.Arrived()
	if got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("arrival state %v", got)
	}
}

// TestBarrierMonotone is a property test: arrivals never regress.
func TestBarrierMonotone(t *testing.T) {
	g := NewBarrierGroup(2)
	f := func(thread bool, idx uint8) bool {
		ti := 0
		if thread {
			ti = 1
		}
		before := g.Arrived()[ti]
		g.TryPass(ti, uint64(idx%8))
		return g.Arrived()[ti] >= before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFigureMixes: the 13 presentation-order labels all resolve.
func TestFigureMixes(t *testing.T) {
	if len(FigureMixes) != 13 {
		t.Fatalf("%d figure mixes, want 13", len(FigureMixes))
	}
	for _, l := range FigureMixes {
		if _, err := MixByLabel(l); err != nil {
			t.Errorf("%s: %v", l, err)
		}
	}
	for level, names := range HierarchicalMixes {
		for _, n := range names {
			if _, err := Lookup(n); err != nil {
				t.Errorf("SMT level %d: %v", level, err)
			}
		}
	}
}

// TestJobBookkeeping covers accessors.
func TestJobBookkeeping(t *testing.T) {
	job := MustNewJob(MustLookup("FP"), 2, 9)
	if job.Name() != "FP" || job.Threads() != 1 || job.Gate() != nil {
		t.Error("FP job accessors wrong")
	}
	job.Committed[0] = 42
	if job.TotalCommitted() != 42 {
		t.Errorf("TotalCommitted %d", job.TotalCommitted())
	}
	if _, err := NewJob(Spec{Name: "bad", Threads: 0}, 0, 1); err == nil {
		t.Error("zero-thread spec accepted")
	}
}

// TestAntagonistsValid: every stressor builds a valid stream.
func TestAntagonistsValid(t *testing.T) {
	if len(Antagonists) != 5 {
		t.Fatalf("%d antagonists", len(Antagonists))
	}
	for name := range Antagonists {
		spec, ok := Antagonist(name)
		if !ok {
			t.Fatalf("lookup %s failed", name)
		}
		if err := spec.Params.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := NewJob(spec, 0, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, ok := Antagonist("NOPE"); ok {
		t.Error("unknown antagonist found")
	}
}
