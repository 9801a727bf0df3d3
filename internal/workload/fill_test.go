package workload

import (
	"fmt"
	"testing"

	"symbios/internal/rng"
	"symbios/internal/trace"
)

// bothShapes is a source that can be read either way: At defines the
// stream, Fill is what the simulator calls and must agree with it.
type bothShapes interface {
	At(seq uint64) trace.Inst
	Fill(seq uint64, out []trace.Inst)
}

// checkFill asserts Fill(seq, out)[i] == At(seq+i), field for field, over a
// buffer pre-filled with junk so a field Fill forgets to write shows up.
func checkFill(t testing.TB, name string, src bothShapes, seq uint64, n int) {
	t.Helper()
	out := make([]trace.Inst, n)
	for i := range out {
		out[i] = trace.Inst{Op: trace.FDIV, Seq: ^uint64(0), Dep1: 7, Dep2: 7, Addr: 1, PC: 1, Taken: true}
	}
	src.Fill(seq, out)
	for i, got := range out {
		if want := src.At(seq + uint64(i)); got != want {
			t.Fatalf("%s: Fill(%d, len %d)[%d] = %+v, At(%d) = %+v", name, seq, n, i, got, seq+uint64(i), want)
		}
	}
}

// TestFillMatchesAt: block supply is the same function as At — for every
// registered benchmark (each thread, SYNC markers included) and a thread
// source with markers every few instructions — at start seqs that include
// 0, the dependence start-up range (seq < MaxDep), every marker
// neighbourhood and random far positions, for lengths 1–64.
func TestFillMatchesAt(t *testing.T) {
	type named struct {
		name   string
		src    bothShapes
		around []uint64 // positions whose neighbourhood must be covered
	}
	var srcs []named
	for _, name := range Names() {
		job := MustNewJob(MustLookup(name), 1, 11)
		for th, s := range job.sources {
			srcs = append(srcs, named{fmt.Sprintf("%s/%d", name, th), s, []uint64{s.syncEvery, 3 * s.syncEvery}})
		}
	}
	base, err := trace.NewStream(MustLookup("ARRAY").Params, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []uint64{1, 2, 5, 16, 17, 64} {
		srcs = append(srcs, named{fmt.Sprintf("sync%d", every), threadSource{base: base, syncEvery: every}, []uint64{every, 10 * every}})
	}

	r := rng.New(20)
	for _, s := range srcs {
		starts := []uint64{0, 1, 2, 3, 7, 39, 40, 55, 56, 57}
		for _, a := range s.around {
			for d := uint64(0); d < 70 && d <= a; d++ {
				starts = append(starts, a-d)
			}
			starts = append(starts, a+1)
		}
		for i := 0; i < 40; i++ {
			starts = append(starts, r.Uint64()>>uint(r.Intn(60)))
		}
		for _, seq := range starts {
			checkFill(t, s.name, s.src, seq, 1+r.Intn(64))
		}
		checkFill(t, s.name, s.src, 0, 64)
	}
}

// FuzzFillMatchesAt lets the fuzzer pick the benchmark, the start, the
// length and the marker spacing.
func FuzzFillMatchesAt(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint8(16), uint16(0))
	f.Add(uint8(3), uint64(399), uint8(64), uint16(400))
	f.Add(uint8(7), uint64(1)<<40, uint8(1), uint16(5))
	names := Names()
	f.Fuzz(func(t *testing.T, spec uint8, seq uint64, n uint8, every uint16) {
		length := 1 + int(n)%64
		seq >>= seq >> 62 // keep seq+i from wrapping
		params := MustLookup(names[int(spec)%len(names)]).Params
		base, err := trace.NewStream(params, uint64(spec)+1, uint64(every))
		if err != nil {
			t.Fatal(err)
		}
		checkFill(t, "stream", base, seq, length)
		checkFill(t, "thread", threadSource{base: base, syncEvery: uint64(every)}, seq, length)
	})
}

// TestTapedJobMatches: a taped job's threads read what the plain job's do —
// SYNC markers spliced in the same places — for every registered benchmark,
// and fresh instances share the job's sources but none of its state.
func TestTapedJobMatches(t *testing.T) {
	r := rng.New(21)
	for _, name := range Names() {
		plain := MustNewJob(MustLookup(name), 2, 17)
		taped := plain.Taped()
		for th := range plain.sources {
			for k := 0; k < 30; k++ {
				seq := r.Uint64() % (3 << 20)
				n := 1 + r.Intn(64)
				want := make([]trace.Inst, n)
				plain.Source(th).Fill(seq, want)
				got := make([]trace.Inst, n)
				taped.Source(th).Fill(seq, got)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%d: taped Fill(%d)[%d] = %+v, plain = %+v", name, th, seq, i, got[i], want[i])
					}
				}
			}
		}

		taped.Progress[0], taped.Committed[0] = 5, 5
		if taped.gate != nil {
			taped.gate.TryPass(0, 3)
		}
		fresh := taped.Fresh()
		if fresh.Progress[0] != 0 || fresh.Committed[0] != 0 || fresh.Spec.Name != name || fresh.ID != 2 {
			t.Fatalf("%s: Fresh kept state: %+v", name, fresh)
		}
		if (fresh.gate == nil) != (taped.gate == nil) || fresh.gate != nil && (fresh.gate == taped.gate || fresh.gate.Arrived()[0] != 0) {
			t.Fatalf("%s: Fresh shares or keeps the barrier gate", name)
		}
		for th := range fresh.sources {
			if fresh.sources[th] != taped.sources[th] {
				t.Fatalf("%s/%d: Fresh does not share the job's source", name, th)
			}
		}
	}
}
