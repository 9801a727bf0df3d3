package trace

import (
	"math"
	"testing"
	"testing/quick"
)

// testParams is a representative mixed profile.
func testParams() Params {
	return Params{
		LoadFrac: 0.25, StoreFrac: 0.10, BranchFrac: 0.10,
		FPFrac: 0.50, FPDivFrac: 0.10, IMulFrac: 0.05,
		DepShort: 0.30, MaxDep: 24, SecondDepFrac: 0.30,
		WorkingSet: 1 << 20, HotSet: 32 << 10, HotFrac: 0.40,
		SeqFrac: 0.30, SeqStride: 8,
		BranchSites: 64, BranchEntropy: 0.05,
		CodeBlocks: 256, BlockLen: 8, JumpFarFrac: 0.10,
	}
}

func mustStream(t *testing.T, p Params, seed, space uint64) *Stream {
	t.Helper()
	s, err := NewStream(p, seed, space)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAtPure: At is a pure function of seq — repeated and out-of-order
// calls return identical instructions. This property is what makes
// timeslice-independent replay (and therefore the weighted speedup
// interval semantics) sound.
func TestAtPure(t *testing.T) {
	s := mustStream(t, testParams(), 42, 0)
	f := func(seq uint32) bool {
		a := s.At(uint64(seq))
		// Interleave an unrelated access to disturb any memoization.
		_ = s.At(uint64(seq) / 2)
		b := s.At(uint64(seq))
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFillMatchesAt: Fill is At over a run of consecutive seqs — every field
// of every instruction, from any start (stream start-up, mid-block, block
// edges, far positions) and for any length, including a block length of one.
func TestFillMatchesAt(t *testing.T) {
	one := testParams()
	one.BlockLen = 1
	for name, p := range map[string]Params{"mixed": testParams(), "blocklen1": one} {
		s := mustStream(t, p, 42, 3)
		f := func(start uint64, shift, n uint8) bool {
			seq := start >> (shift % 64) // spread starts over every magnitude, 0 included
			if seq > math.MaxUint64-64 {
				seq = math.MaxUint64 - 64
			}
			out := make([]Inst, 1+n%64)
			for i := range out {
				out[i] = Inst{Op: SYNC, Dep2: 9, Addr: 1, Taken: true} // junk Fill must overwrite
			}
			s.Fill(seq, out)
			for i, got := range out {
				if got != s.At(seq+uint64(i)) {
					t.Errorf("%s: Fill(%d)[%d] = %+v, At = %+v", name, seq, i, got, s.At(seq+uint64(i)))
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Error(err)
		}
		for seq := uint64(0); seq < 40; seq++ { // every alignment through the start-up range
			if !f(seq, 0, 63) {
				break
			}
		}
	}
}

// TestTwoStreamsIndependent: different seeds give different streams;
// identical construction gives identical streams.
func TestTwoStreamsIndependent(t *testing.T) {
	a := mustStream(t, testParams(), 1, 0)
	b := mustStream(t, testParams(), 1, 0)
	c := mustStream(t, testParams(), 2, 0)
	same, diff := 0, 0
	for i := uint64(0); i < 1000; i++ {
		if a.At(i) == b.At(i) {
			same++
		}
		if a.At(i).Op != c.At(i).Op || a.At(i).Dep1 != c.At(i).Dep1 {
			diff++
		}
	}
	if same != 1000 {
		t.Errorf("identical streams diverge: %d/1000 equal", same)
	}
	if diff == 0 {
		t.Error("different seeds produced identical streams")
	}
}

// TestInstructionMix checks the realized op-class frequencies against the
// profile.
func TestInstructionMix(t *testing.T) {
	p := testParams()
	s := mustStream(t, p, 7, 1)
	const n = 200_000
	var loads, stores, branches, fp, divs int
	for i := uint64(0); i < n; i++ {
		in := s.At(i)
		switch {
		case in.Op == LOAD:
			loads++
		case in.Op == STORE:
			stores++
		case in.Op == BRANCH:
			branches++
		case in.Op == FADD || in.Op == FMUL || in.Op == FDIV:
			fp++
			if in.Op == FDIV {
				divs++
			}
		}
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"loads", float64(loads) / n, p.LoadFrac},
		{"stores", float64(stores) / n, p.StoreFrac},
		{"branches", float64(branches) / n, p.BranchFrac},
		{"fp", float64(fp) / n, (1 - p.LoadFrac - p.StoreFrac - p.BranchFrac) * p.FPFrac},
		{"fdiv of fp", float64(divs) / float64(fp), p.FPDivFrac},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 0.02 {
			t.Errorf("%s fraction %.3f, want ~%.3f", c.name, c.got, c.want)
		}
	}
}

// TestDependencyBounds: producer distances stay within [1, min(seq,
// MaxDep)] and absent deps are zero.
func TestDependencyBounds(t *testing.T) {
	p := testParams()
	s := mustStream(t, p, 11, 2)
	for i := uint64(0); i < 50_000; i++ {
		in := s.At(i)
		for _, d := range []uint32{in.Dep1, in.Dep2} {
			if d == 0 {
				continue
			}
			if uint64(d) > i {
				t.Fatalf("seq %d: dep distance %d reaches before stream start", i, d)
			}
			if int(d) > p.MaxDep {
				t.Fatalf("seq %d: dep distance %d exceeds MaxDep %d", i, d, p.MaxDep)
			}
		}
	}
	if s.At(0).Dep1 != 0 || s.At(0).Dep2 != 0 {
		t.Error("first instruction has a producer")
	}
}

// TestAddressRegions: data addresses stay inside the stream's private
// region and within the working set; distinct spaces are disjoint.
func TestAddressRegions(t *testing.T) {
	p := testParams()
	a := mustStream(t, p, 5, 3)
	b := mustStream(t, p, 5, 4)
	loA, hiA := ^uint64(0), uint64(0)
	for i := uint64(0); i < 50_000; i++ {
		in := a.At(i)
		if !in.Op.IsMem() {
			continue
		}
		if in.Addr < loA {
			loA = in.Addr
		}
		if in.Addr > hiA {
			hiA = in.Addr
		}
		if in.Addr%8 != 0 {
			t.Fatalf("unaligned address %#x", in.Addr)
		}
	}
	if hiA-loA >= p.WorkingSet {
		t.Errorf("address span %d exceeds working set %d", hiA-loA, p.WorkingSet)
	}
	for i := uint64(0); i < 10_000; i++ {
		in := b.At(i)
		if in.Op.IsMem() && in.Addr >= loA && in.Addr <= hiA {
			t.Fatalf("space 4 address %#x inside space 3 region [%#x,%#x]", in.Addr, loA, hiA)
		}
	}
}

// TestBranchBiasPerPC: with zero entropy, every dynamic branch at a given
// PC resolves in the same direction — the property the pattern predictor
// depends on.
func TestBranchBiasPerPC(t *testing.T) {
	p := testParams()
	p.BranchEntropy = 0
	s := mustStream(t, p, 9, 5)
	dir := map[uint64]bool{}
	branches := 0
	for i := uint64(0); i < 100_000; i++ {
		in := s.At(i)
		if in.Op != BRANCH {
			continue
		}
		branches++
		if prev, ok := dir[in.PC]; ok && prev != in.Taken {
			t.Fatalf("branch at PC %#x changed direction", in.PC)
		}
		dir[in.PC] = in.Taken
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
}

// TestCodeFootprint: PCs stay within CodeBlocks * BlockLen * 4 bytes of the
// code base.
func TestCodeFootprint(t *testing.T) {
	p := testParams()
	s := mustStream(t, p, 13, 6)
	span := uint64(p.CodeBlocks) * uint64(p.BlockLen) * 4
	lo, hi := ^uint64(0), uint64(0)
	for i := uint64(0); i < 50_000; i++ {
		pc := s.At(i).PC
		if pc < lo {
			lo = pc
		}
		if pc > hi {
			hi = pc
		}
	}
	if hi-lo >= span {
		t.Errorf("code span %d exceeds footprint %d", hi-lo, span)
	}
}

// TestValidateRejects exercises each profile validation rule.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"mix over 1", func(p *Params) { p.LoadFrac, p.StoreFrac, p.BranchFrac = 0.5, 0.4, 0.2 }},
		{"no maxdep", func(p *Params) { p.MaxDep = 0 }},
		{"no working set", func(p *Params) { p.WorkingSet = 0 }},
		{"hot > working", func(p *Params) { p.HotSet = p.WorkingSet * 2 }},
		{"no branch sites", func(p *Params) { p.BranchSites = 0 }},
		{"no code", func(p *Params) { p.CodeBlocks = 0 }},
		{"no stride", func(p *Params) { p.SeqStride = 0 }},
		{"maxdep past a tape record", func(p *Params) { p.MaxDep = 1024 }},
		{"working set past a tape record", func(p *Params) { p.WorkingSet = 1<<39 + 8 }},
	}
	for _, tc := range cases {
		p := testParams()
		tc.mut(&p)
		if _, err := NewStream(p, 1, 0); err == nil {
			t.Errorf("%s: NewStream accepted an invalid profile", tc.name)
		}
	}
}

// TestStreamingLocality: with a fully sequential profile, successive memory
// accesses advance by about one stride per access.
func TestStreamingLocality(t *testing.T) {
	p := testParams()
	p.SeqFrac, p.HotFrac = 1, 0
	s := mustStream(t, p, 17, 7)
	var prev uint64
	var havePrev bool
	big := 0
	n := 0
	for i := uint64(0); i < 20_000; i++ {
		in := s.At(i)
		if !in.Op.IsMem() {
			continue
		}
		if havePrev && in.Addr >= prev {
			if in.Addr-prev > 64 {
				big++
			}
			n++
		}
		prev, havePrev = in.Addr, true
	}
	if n == 0 {
		t.Fatal("no consecutive accesses observed")
	}
	if frac := float64(big) / float64(n); frac > 0.05 {
		t.Errorf("%.1f%% of streaming accesses jump more than a cache line", 100*frac)
	}
}

// TestOpString covers the mnemonics.
func TestOpString(t *testing.T) {
	want := map[Op]string{
		IALU: "IALU", IMUL: "IMUL", FADD: "FADD", FMUL: "FMUL",
		FDIV: "FDIV", LOAD: "LOAD", STORE: "STORE", BRANCH: "BRANCH", SYNC: "SYNC",
	}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("%d: got %q want %q", op, op.String(), name)
		}
	}
	if Op(200).String() == "" {
		t.Error("unknown op stringifies empty")
	}
}
