package trace_test

import (
	"math"
	"sort"
	"sync"
	"testing"

	"symbios/internal/rng"
	"symbios/internal/trace"
	"symbios/internal/workload"
)

// registered returns every registered profile, benchmarks and antagonists,
// in name order.
func registered() (names []string, params []trace.Params) {
	for _, n := range workload.Names() {
		names = append(names, n)
		params = append(params, workload.MustLookup(n).Params)
	}
	var anta []string
	for n := range workload.Antagonists {
		anta = append(anta, n)
	}
	sort.Strings(anta)
	for _, n := range anta {
		names = append(names, n)
		params = append(params, workload.Antagonists[n].Params)
	}
	return names, params
}

// checkTape asserts that tp.Fill(seq, out) writes what the stream's own
// Fill does, field for field, over a buffer pre-filled with junk so a field
// the tape forgets to write shows up, and that tp.At agrees at both ends.
func checkTape(t testing.TB, name string, s *trace.Stream, tp *trace.Tape, seq uint64, n int) {
	t.Helper()
	want := make([]trace.Inst, n)
	s.Fill(seq, want)
	got := make([]trace.Inst, n)
	for i := range got {
		got[i] = trace.Inst{Op: trace.FDIV, Seq: ^uint64(0), Dep1: 7, Dep2: 7, Addr: 1, PC: 1, Taken: true}
	}
	tp.Fill(seq, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Tape.Fill(%d, len %d)[%d] = %+v, Stream.Fill = %+v", name, seq, n, i, got[i], want[i])
		}
	}
	for _, i := range []int{0, n - 1} {
		if a := tp.At(seq + uint64(i)); a != want[i] {
			t.Fatalf("%s: Tape.At(%d) = %+v, Stream.Fill = %+v", name, seq+uint64(i), a, want[i])
		}
	}
}

// TestTapeMatchesStream: a tape reads exactly what its stream generates —
// for every registered profile, from start seqs that include 0, the
// dependence start-up range, both sides of chunk edges, both sides of the
// horizon and far past it, for lengths 1–128 (so a window may span a chunk
// edge or the horizon). Every window is read twice, so the second read
// decodes chunks the first recorded.
func TestTapeMatchesStream(t *testing.T) {
	const c, h = trace.TapeChunkLen, trace.TapeHorizon
	names, params := registered()
	r := rng.New(33)
	for i, p := range params {
		s, err := trace.NewStream(p, uint64(i)+1, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		tp := trace.NewTape(s)
		starts := []uint64{0, 1, 2, 3, 39, 40, 55, 56, 57, h, h + 1, 1 << 40, math.MaxUint64 - 128}
		for _, edge := range []uint64{c, 2 * c, 7 * c, h - c, h} {
			for d := uint64(1); d <= 130; d += 3 {
				starts = append(starts, edge-d, edge+d)
			}
		}
		for k := 0; k < 40; k++ {
			starts = append(starts, r.Uint64()%(h+2*c), r.Uint64()>>uint(r.Intn(60)))
		}
		for _, seq := range starts {
			n := 1 + r.Intn(128)
			checkTape(t, names[i], s, tp, seq, n)
			checkTape(t, names[i], s, tp, seq, n)
		}
	}
}

// TestTapeAtRecordLimits: a profile at both limits Validate allows — the
// longest dependence distance and the largest working set a record holds —
// still reads back exactly.
func TestTapeAtRecordLimits(t *testing.T) {
	p := workload.MustLookup("GCC").Params
	p.MaxDep, p.DepShort = 1023, 0
	p.WorkingSet, p.SeqFrac, p.HotFrac = 1<<39, 0, 0
	s, err := trace.NewStream(p, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	tp := trace.NewTape(s)
	var deep, far bool
	for seq := uint64(0); seq < 3*trace.TapeChunkLen; seq += 64 {
		checkTape(t, "limits", s, tp, seq, 64)
		for i := seq; i < seq+64; i++ {
			in := s.At(i)
			deep = deep || in.Dep1 > 1000
			far = far || in.Op.IsMem() && in.Addr&(1<<38) != 0
		}
	}
	if !deep || !far {
		t.Fatalf("limits not exercised: dependence above 1000 %v, offset above 2^38 %v", deep, far)
	}
}

// FuzzTapeMatchesStream lets the fuzzer pick the profile, the stream, a
// window anywhere and a second window in or just past the recorded range.
func FuzzTapeMatchesStream(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint8(16), uint64(100), uint8(1))
	f.Add(uint8(3), uint64(trace.TapeChunkLen-5), uint8(64), uint64(trace.TapeChunkLen), uint8(9))
	f.Add(uint8(7), uint64(trace.TapeHorizon-40), uint8(127), uint64(1)<<40, uint8(64))
	names, params := registered()
	f.Fuzz(func(t *testing.T, prof uint8, seq uint64, n uint8, seq2 uint64, n2 uint8) {
		i := int(prof) % len(params)
		s, err := trace.NewStream(params[i], uint64(prof)+seq2%7, uint64(n2))
		if err != nil {
			t.Fatal(err)
		}
		tp := trace.NewTape(s)
		seq >>= seq >> 62 // keep seq+len from wrapping
		seq2 %= trace.TapeHorizon + trace.TapeChunkLen
		checkTape(t, names[i], s, tp, seq, 1+int(n)%128)
		checkTape(t, names[i], s, tp, seq2, 1+int(n2)%128)
	})
}

// TestTapeConcurrentReaders: eight goroutines read overlapping windows of
// one tape, racing to record the same chunks, and each reads exactly what
// the stream generates. Run under -race, it also checks that a published
// chunk is safe to read without the tape's lock.
func TestTapeConcurrentReaders(t *testing.T) {
	s, err := trace.NewStream(workload.MustLookup("MG").Params, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := trace.NewTape(s)
	const span = 6 * trace.TapeChunkLen
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := make([]trace.Inst, 16+g)
			got := make([]trace.Inst, len(want))
			for seq := uint64(g * 37); seq < span; seq += uint64(len(want)) - 3 {
				s.Fill(seq, want)
				tp.Fill(seq, got)
				for i := range got {
					if got[i] != want[i] {
						errs <- "tape diverged from its stream under concurrent reads"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRegisteredProfilesFitTape: every registered profile passes Validate,
// so every one can be taped.
func TestRegisteredProfilesFitTape(t *testing.T) {
	names, params := registered()
	for i, p := range params {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
	}
}
