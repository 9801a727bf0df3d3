// Package trace synthesizes the dynamic instruction streams that drive the
// SMT simulator.
//
// The paper drives SMTSIM with SPEC95 and NAS Parallel Benchmark binaries.
// Those binaries (and an Alpha ISA front end) are unavailable here, so each
// benchmark is replaced by a parameterized synthetic stream whose resource
// profile — instruction mix, natural ILP, memory footprint and locality,
// branch predictability, code footprint — is set to mirror the published
// characterization of the benchmark it stands in for (see
// internal/workload). Symbiosis and anti-symbiosis between coscheduled jobs
// arise from these profiles contending for the shared pipeline resources,
// which is the phenomenon under study; the actual computation performed by
// the instructions is irrelevant to the scheduling experiments.
//
// The i-th instruction of a stream is a pure function of (stream seed, i).
// Execution can therefore be sliced across timeslices arbitrarily and a job
// always replays identically, which is exactly the interval semantics the
// weighted speedup metric requires ("an interval starts ... at a particular
// point in the execution of each job").
package trace

import (
	"fmt"

	"symbios/internal/rng"
)

// Op enumerates the instruction classes the pipeline distinguishes.
type Op uint8

// Instruction classes. Loads and stores occupy load/store units and access
// the data cache; branches occupy an integer ALU and consult the shared
// branch predictor; the rest occupy integer ALUs or floating-point units.
const (
	IALU Op = iota
	IMUL
	FADD
	FMUL
	FDIV
	LOAD
	STORE
	BRANCH
	SYNC // barrier marker emitted by multithreaded jobs (see workload)

	// NumOps is the number of op classes; ops index tables of this size.
	NumOps
)

// String returns the mnemonic for the op class.
func (o Op) String() string {
	switch o {
	case IALU:
		return "IALU"
	case IMUL:
		return "IMUL"
	case FADD:
		return "FADD"
	case FMUL:
		return "FMUL"
	case FDIV:
		return "FDIV"
	case LOAD:
		return "LOAD"
	case STORE:
		return "STORE"
	case BRANCH:
		return "BRANCH"
	case SYNC:
		return "SYNC"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsMem reports whether the op accesses the data cache.
func (o Op) IsMem() bool { return o == LOAD || o == STORE }

// Inst is one dynamic instruction.
type Inst struct {
	Op Op
	// Seq is the position in the thread's dynamic stream.
	Seq uint64
	// Dep1 and Dep2 are distances back to producer instructions in the same
	// stream (0 means no dependence). The consumer cannot issue before its
	// producers complete; this is how the stream's natural ILP is encoded.
	Dep1, Dep2 uint32
	// Addr is the virtual byte address for LOAD/STORE.
	Addr uint64
	// PC is the instruction's code address (drives icache and the branch
	// predictor index).
	PC uint64
	// Taken is the architectural outcome for BRANCH.
	Taken bool
}

// Params defines a synthetic stream's statistical profile. All *Frac fields
// are probabilities in [0,1]; fractions of the total instruction stream for
// LoadFrac/StoreFrac/BranchFrac, and of the remaining compute slice for
// FPFrac.
type Params struct {
	// Instruction mix.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64 // of non-memory, non-branch instructions
	FPDivFrac  float64 // of FP instructions
	IMulFrac   float64 // of integer compute instructions

	// Dependencies: with probability DepShort a producer is 1–3
	// instructions back (serial code, low ILP); otherwise uniform in
	// [1, MaxDep] (loop-parallel code, high ILP). SecondDepFrac adds a
	// second source dependence.
	DepShort      float64
	MaxDep        int
	SecondDepFrac float64

	// Data memory behaviour.
	WorkingSet uint64  // total data footprint in bytes
	HotSet     uint64  // hot region size in bytes
	HotFrac    float64 // accesses that hit the hot region
	SeqFrac    float64 // accesses that stream sequentially
	SeqStride  uint64  // bytes between consecutive streaming accesses

	// Control behaviour.
	BranchSites   int     // static branch sites (PHT pressure)
	BranchEntropy float64 // probability an outcome is data-dependent noise

	// Code behaviour.
	CodeBlocks  int // static basic blocks (icache pressure)
	BlockLen    int // dynamic instructions per basic-block visit
	JumpFarFrac float64
}

// Bounds a profile must keep for its instructions to fit a Tape record:
// dependence distances in 10 bits, data offsets divided by 8 in 36.
const (
	maxTapeDep        = recDepMask
	maxTapeWorkingSet = 1 << 39
)

// Validate reports an error if the profile is not generatable, or if its
// instructions would not fit a Tape record.
func (p Params) Validate() error {
	sum := p.LoadFrac + p.StoreFrac + p.BranchFrac
	switch {
	case sum >= 1:
		return fmt.Errorf("trace: LoadFrac+StoreFrac+BranchFrac = %.3f must be < 1", sum)
	case p.MaxDep < 1 || p.MaxDep > maxTapeDep:
		return fmt.Errorf("trace: MaxDep %d must be in [1, %d]", p.MaxDep, maxTapeDep)
	case p.WorkingSet == 0 || p.WorkingSet > maxTapeWorkingSet:
		return fmt.Errorf("trace: WorkingSet %d must be in [1, %d]", p.WorkingSet, uint64(maxTapeWorkingSet))
	case p.HotSet > p.WorkingSet:
		return fmt.Errorf("trace: HotSet larger than WorkingSet")
	case p.BranchSites < 1:
		return fmt.Errorf("trace: BranchSites must be >= 1")
	case p.CodeBlocks < 1 || p.BlockLen < 1:
		return fmt.Errorf("trace: CodeBlocks and BlockLen must be >= 1")
	case p.SeqStride == 0 && p.SeqFrac > 0:
		return fmt.Errorf("trace: SeqStride must be > 0 when SeqFrac > 0")
	}
	return nil
}

// Stream generates instructions for one thread. At is a pure function of
// the construction arguments and the sequence number; the struct carries
// only precomputed constants, so replay is exact and a Stream may be read
// from several goroutines.
//
// Generation runs for every simulated fetch, so its divisions by per-stream
// constants use precomputed exact reciprocals (rng.Divisor) and its
// probability draws use precomputed integer thresholds (rng.Threshold); both
// are proven bit-identical to the plain / % and float-compare forms they
// replace.
type Stream struct {
	params   Params
	seed     uint64
	dataBase uint64
	codeBase uint64
	// accessStep approximates the instruction distance between successive
	// memory accesses, so streaming addresses advance one SeqStride per
	// access rather than per instruction.
	accessStep uint64

	// Exact reciprocals for the per-stream-constant divisors.
	divWS       rng.Divisor // params.WorkingSet
	divHot      rng.Divisor // params.HotSet (unused when 0)
	divMaxDep   rng.Divisor // params.MaxDep
	divSites    rng.Divisor // params.BranchSites
	divBlocks   rng.Divisor // params.CodeBlocks
	divBlockLen rng.Divisor // params.BlockLen
	divStep     rng.Divisor // accessStep

	// Integer draw bounds for the profile probabilities (see rng.Threshold).
	// Cumulative thresholds are built from the same float sums the direct
	// comparisons used, preserving their rounding.
	thrLoad      uint64 // LoadFrac
	thrStore     uint64 // LoadFrac+StoreFrac
	thrBranch    uint64 // LoadFrac+StoreFrac+BranchFrac
	thrFP        uint64 // FPFrac
	thrFDiv      uint64 // FPDivFrac
	thrFMul      uint64 // FPDivFrac+(1-FPDivFrac)/2
	thrIMul      uint64 // IMulFrac
	thrDepShort  uint64 // DepShort
	thrSecondDep uint64 // SecondDepFrac
	thrSeq       uint64 // SeqFrac
	thrHot       uint64 // SeqFrac+HotFrac
	thrEntropy   uint64 // BranchEntropy
	thrJumpFar   uint64 // JumpFarFrac
}

// NewStream builds a generator for one thread of one job. seed distinguishes
// jobs (and threads within a job); space distinguishes address spaces — the
// data and code bases are derived from it so distinct jobs occupy distinct
// regions while threads of one job may share a space.
func NewStream(p Params, seed, space uint64) (*Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	step := uint64(1)
	if mf := p.LoadFrac + p.StoreFrac; mf > 0 {
		step = uint64(1/mf + 0.5)
		if step == 0 {
			step = 1
		}
	}
	// Separate 1 TB regions per address space keep job footprints disjoint
	// without allocation bookkeeping. The page-aligned jitter keeps regions
	// from being congruent modulo the cache and predictor table sizes —
	// without it every job's footprint would collide perfectly with every
	// other's, which real virtual-to-physical mappings never do.
	jitter := (rng.Hash(space, 0x0ff5e7) % (1 << 24)) &^ 8191
	s := &Stream{
		params:     p,
		seed:       seed,
		dataBase:   (space+1)<<40 + jitter,
		codeBase:   (space+1)<<40 | 1<<39 + jitter>>1&^8191,
		accessStep: step,

		divWS:       rng.NewDivisor(p.WorkingSet),
		divHot:      rng.NewDivisor(max(p.HotSet, 1)),
		divMaxDep:   rng.NewDivisor(uint64(p.MaxDep)),
		divSites:    rng.NewDivisor(uint64(p.BranchSites)),
		divBlocks:   rng.NewDivisor(uint64(p.CodeBlocks)),
		divBlockLen: rng.NewDivisor(uint64(p.BlockLen)),
		divStep:     rng.NewDivisor(step),

		thrLoad:      rng.Threshold(p.LoadFrac),
		thrStore:     rng.Threshold(p.LoadFrac + p.StoreFrac),
		thrBranch:    rng.Threshold(p.LoadFrac + p.StoreFrac + p.BranchFrac),
		thrFP:        rng.Threshold(p.FPFrac),
		thrFDiv:      rng.Threshold(p.FPDivFrac),
		thrFMul:      rng.Threshold(p.FPDivFrac + float64((1-p.FPDivFrac)/2)),
		thrIMul:      rng.Threshold(p.IMulFrac),
		thrDepShort:  rng.Threshold(p.DepShort),
		thrSecondDep: rng.Threshold(p.SecondDepFrac),
		thrSeq:       rng.Threshold(p.SeqFrac),
		thrHot:       rng.Threshold(p.SeqFrac + p.HotFrac),
		thrEntropy:   rng.Threshold(p.BranchEntropy),
		thrJumpFar:   rng.Threshold(p.JumpFarFrac),
	}
	return s, nil
}

// Params returns the profile the stream was built with.
func (s *Stream) Params() Params { return s.params }

// At returns instruction seq of the stream. It is the stream's definition:
// Fill is the same function evaluated over a run of consecutive seqs.
func (s *Stream) At(seq uint64) Inst {
	var in Inst
	s.gen(&in, seq, s.pcAt(seq))
	return in
}

// Fill writes the len(out) instructions starting at seq into out:
// out[i] == At(seq+i). It is how the simulator's fetch stage consumes a
// stream — one call per buffer instead of one per instruction — and walks
// the basic-block sequence incrementally instead of re-deriving each
// instruction's block from its seq.
func (s *Stream) Fill(seq uint64, out []Inst) {
	if len(out) == 0 {
		return
	}
	if fillHook != nil {
		fillHook(len(out))
	}
	blockLen := uint64(s.params.BlockLen)
	visit := s.divBlockLen.Div(seq)
	within := seq - visit*blockLen
	base := s.blockBase(visit)
	for i := range out {
		if within == blockLen {
			visit++
			within = 0
			base = s.blockBase(visit)
		}
		s.gen(&out[i], seq, base+within*4)
		within++
		seq++
	}
}

// fillHook, when set, is told how many instructions each Stream.Fill call
// generates (see SetFillHook).
var fillHook func(n int)

// SetFillHook makes fn receive the number of instructions every later
// Stream.Fill call generates, until SetFillHook(nil). It is for tests that
// count how much of a stream a computation generated, directly or through
// a Tape. fn runs on the reading goroutines, so it must be safe for
// concurrent use; set the hook only while no stream is being read.
func SetFillHook(fn func(n int)) { fillHook = fn }

// gen writes instruction seq, whose code address is pc, into in.
func (s *Stream) gen(in *Inst, seq, pc uint64) {
	// One counter-based draw per instruction; cheap derived draws for each
	// independent decision.
	h := rng.Hash2(s.seed, seq, 0)
	r0 := h
	r1 := rng.Hash(h, 1)
	r2 := rng.Hash(h, 2)

	*in = Inst{Seq: seq, PC: pc}

	u := r0 >> 11
	switch {
	case u < s.thrLoad:
		in.Op = LOAD
		in.Addr = s.addrAt(seq, r1)
	case u < s.thrStore:
		in.Op = STORE
		in.Addr = s.addrAt(seq, r1)
	case u < s.thrBranch:
		in.Op = BRANCH
		in.Taken = s.outcomeAt(pc, r1)
	default:
		if r1>>11 < s.thrFP {
			w := rng.Hash(h, 3) >> 11
			switch {
			case w < s.thrFDiv:
				in.Op = FDIV
			case w < s.thrFMul:
				in.Op = FMUL
			default:
				in.Op = FADD
			}
		} else if rng.Hash(h, 3)>>11 < s.thrIMul {
			in.Op = IMUL
		} else {
			in.Op = IALU
		}
	}

	in.Dep1 = s.depAt(seq, r2)
	if s.thrSecondDep > 0 && rng.Hash(h, 4)>>11 < s.thrSecondDep {
		in.Dep2 = s.depAt(seq, rng.Hash(h, 5))
	}
}

// depAt draws a producer distance in [1, min(seq, MaxDep)]; 0 if seq == 0.
func (s *Stream) depAt(seq, r uint64) uint32 {
	if seq == 0 {
		return 0
	}
	maxd := uint64(s.params.MaxDep)
	useDiv := seq >= maxd
	if seq < maxd {
		maxd = seq
	}
	if r>>11 < s.thrDepShort {
		d := 1 + r%3
		if d > maxd {
			d = maxd
		}
		return uint32(d)
	}
	if useDiv {
		return uint32(1 + s.divMaxDep.Mod(r>>16))
	}
	return uint32(1 + (r>>16)%maxd) // startup only: seq < MaxDep
}

// addrAt draws a data address: streaming, hot-region, or uniform over the
// working set, all aligned to 8 bytes within this job's private region.
func (s *Stream) addrAt(seq, r uint64) uint64 {
	u := r >> 11
	var off uint64
	switch {
	case u < s.thrSeq:
		off = s.divWS.Mod(s.divStep.Div(seq) * s.params.SeqStride)
	case u < s.thrHot && s.params.HotSet > 0:
		off = s.divHot.Mod(r >> 8)
	default:
		off = s.divWS.Mod(r >> 8)
	}
	return s.dataBase + (off &^ 7)
}

// outcomeAt draws a branch outcome for the branch at pc. Each static branch
// site — derived from the PC, so a pattern predictor indexed by PC sees a
// consistent direction — has a biased direction; with probability
// BranchEntropy the outcome is data-dependent noise instead. The predictor
// learns the bias but not the noise, so the realized mispredict rate tracks
// BranchEntropy plus table-interference effects.
func (s *Stream) outcomeAt(pc, r uint64) bool {
	if r>>11 < s.thrEntropy {
		return r&1 == 0
	}
	site := s.divSites.Mod(pc >> 2)
	bias := rng.Hash2(s.seed, site, 0xb1a5)
	return bias&1 == 0
}

// pcAt maps a dynamic instruction to a code address. Execution walks basic
// blocks; most transitions are near (sequential code), a fraction jump far
// (calls), producing an icache footprint proportional to CodeBlocks.
func (s *Stream) pcAt(seq uint64) uint64 {
	visit := s.divBlockLen.Div(seq)
	within := seq - visit*uint64(s.params.BlockLen)
	return s.blockBase(visit) + within*4
}

// blockBase returns the code address of the basic block executed on the
// visit-th block visit of the stream.
func (s *Stream) blockBase(visit uint64) uint64 {
	h := rng.Hash2(s.seed, visit, 0xc0de)
	var block uint64
	if h>>11 < s.thrJumpFar {
		block = s.divBlocks.Mod(h >> 8)
	} else {
		// Walk nearby blocks to model loop bodies and straight-line code.
		block = s.divBlocks.Mod(visit + (h>>8)%4)
	}
	return s.codeBase + block*uint64(s.params.BlockLen)*4
}
