// Package arch defines the simulated processor configuration.
//
// The default configuration models an out-of-order processor based on the
// Compaq Alpha 21264 with modest additions to support simultaneous
// multithreading, as described in Section 3 of the paper: 21264-like
// instruction latencies, fully pipelined functional units, 21264-sized
// instruction queues, caches and TLB, extended with per-context state and an
// ICOUNT.2.8 fetch policy.
package arch

import "fmt"

// FetchPolicy selects how the fetch stage divides bandwidth between the
// hardware contexts each cycle.
type FetchPolicy int

const (
	// FetchICOUNT favours threads with the fewest instructions in the
	// pre-issue pipeline stages (the ICOUNT policy of Tullsen et al.,
	// ISCA'96 — the paper's baseline fetch policy).
	FetchICOUNT FetchPolicy = iota
	// FetchRoundRobin alternates fetch priority among contexts regardless
	// of pipeline occupancy (ablation baseline).
	FetchRoundRobin
)

// String names the policy.
func (p FetchPolicy) String() string {
	if p == FetchRoundRobin {
		return "RoundRobin"
	}
	return "ICOUNT"
}

// Config captures every hardware parameter the simulator consumes. The zero
// value is not meaningful; start from Default21264 and override fields.
type Config struct {
	// Contexts is the hardware multithreading (SMT) level: the number of
	// hardware contexts, hence the maximum number of coscheduled jobs.
	Contexts int

	// FetchPolicy selects the per-cycle fetch arbitration (default ICOUNT).
	FetchPolicy FetchPolicy

	// FetchWidth is the total instructions fetched per cycle.
	FetchWidth int
	// FetchThreads is the number of threads that may fetch in one cycle
	// (the ".2" in ICOUNT.2.8).
	FetchThreads int
	// DecodeWidth caps instructions renamed/dispatched per cycle.
	DecodeWidth int
	// IssueWidth caps total instructions issued to functional units per cycle.
	IssueWidth int
	// RetireWidth caps instructions retired per thread per cycle.
	RetireWidth int

	// WindowSize is the per-thread reorder-window capacity (in-flight
	// instructions per context).
	WindowSize int

	// IntQueue and FPQueue are the shared instruction queue capacities.
	IntQueue int
	FPQueue  int

	// IntRenameRegs and FPRenameRegs are the shared renaming register pools
	// available beyond the architectural registers.
	IntRenameRegs int
	FPRenameRegs  int

	// Functional unit counts. All units are fully pipelined.
	IntALUs int
	FPUnits int
	LSUnits int

	// Operation latencies, in cycles.
	IntALULatency int
	IntMulLatency int
	FPAddLatency  int
	FPMulLatency  int
	FPDivLatency  int
	BranchLatency int

	// MispredictPenalty is the fetch-restart delay after a mispredicted
	// branch resolves.
	MispredictPenalty int

	// L1I, L1D, L2 cache geometry.
	L1ISets, L1IAssoc, L1ILineBytes int
	L1DSets, L1DAssoc, L1DLineBytes int
	L2Sets, L2Assoc, L2LineBytes    int

	// Cache hit latencies (cycles); L1 hits are pipelined into the load
	// latency below, misses add the next level's latency.
	L1DHitLatency int
	L2HitLatency  int
	MemLatency    int

	// DTLBEntries is the data TLB capacity: the TLB is 4-way
	// set-associative, so it must be four times a power of two.
	// TLBMissPenalty is the refill cost in cycles.
	DTLBEntries    int
	TLBMissPenalty int
	PageBytes      int

	// Branch predictor geometry: a gshare predictor with 2^BranchPHTBits
	// two-bit counters, shared between all contexts (so jobs interfere in
	// the shared tables, as the paper's resource list requires). With
	// BranchHistBits = 0 the predictor degenerates to bimodal, which is the
	// right model for synthetic streams whose branch ordering carries no
	// repeatable history patterns.
	BranchPHTBits  int
	BranchHistBits int
}

// Default21264 returns the baseline configuration used throughout the
// experiments: an Alpha-21264-like core with the given SMT level.
func Default21264(contexts int) Config {
	return Config{
		Contexts:     contexts,
		FetchWidth:   8,
		FetchThreads: 2,
		DecodeWidth:  8,
		IssueWidth:   8,
		RetireWidth:  8,

		WindowSize: 64,

		IntQueue: 20,
		FPQueue:  15,

		IntRenameRegs: 41,
		FPRenameRegs:  41,

		IntALUs: 4,
		FPUnits: 2,
		LSUnits: 2,

		IntALULatency: 1,
		IntMulLatency: 7,
		FPAddLatency:  4,
		FPMulLatency:  4,
		FPDivLatency:  12,
		BranchLatency: 1,

		MispredictPenalty: 7,

		L1ISets: 512, L1IAssoc: 2, L1ILineBytes: 64, // 64 KB, as on the 21264
		L1DSets: 512, L1DAssoc: 2, L1DLineBytes: 64, // 64 KB
		L2Sets: 8192, L2Assoc: 8, L2LineBytes: 64, // 4 MB board-level cache

		L1DHitLatency: 3,
		L2HitLatency:  12,
		MemLatency:    100,

		DTLBEntries:    128,
		TLBMissPenalty: 25,
		PageBytes:      8192,

		BranchPHTBits:  15,
		BranchHistBits: 0,
	}
}

// Validate reports a descriptive error for configurations the simulator
// cannot run.
func (c Config) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{c.Contexts >= 1, "Contexts >= 1"},
		{c.FetchWidth >= 1, "FetchWidth >= 1"},
		{c.FetchThreads >= 1, "FetchThreads >= 1"},
		{c.DecodeWidth >= 1, "DecodeWidth >= 1"},
		{c.IssueWidth >= 1, "IssueWidth >= 1"},
		{c.RetireWidth >= 1, "RetireWidth >= 1"},
		{c.WindowSize >= 4, "WindowSize >= 4"},
		{c.IntQueue >= 1, "IntQueue >= 1"},
		{c.FPQueue >= 1, "FPQueue >= 1"},
		{c.IntRenameRegs >= 1, "IntRenameRegs >= 1"},
		{c.FPRenameRegs >= 1, "FPRenameRegs >= 1"},
		{c.IntALUs >= 1, "IntALUs >= 1"},
		{c.FPUnits >= 1, "FPUnits >= 1"},
		{c.LSUnits >= 1, "LSUnits >= 1"},
		{c.MispredictPenalty >= 0, "MispredictPenalty >= 0"},
		{isPow2(c.L1DSets) && isPow2(c.L2Sets) && isPow2(c.L1ISets), "cache set counts are powers of two"},
		{c.L1IAssoc >= 1 && c.L1DAssoc >= 1 && c.L2Assoc >= 1, "cache associativities >= 1"},
		{isPow2(c.L1DLineBytes) && isPow2(c.L2LineBytes) && isPow2(c.L1ILineBytes), "cache line sizes are powers of two"},
		{isPow2(c.PageBytes), "PageBytes is a power of two"},
		{c.DTLBEntries%4 == 0 && isPow2(c.DTLBEntries/4), "DTLBEntries is 4 x a power of two"},
		{c.BranchPHTBits >= 1 && c.BranchPHTBits <= 24, "BranchPHTBits in [1,24]"},
		{c.BranchHistBits >= 0 && c.BranchHistBits <= 16, "BranchHistBits in [0,16]"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("arch: invalid config: want %s", ch.what)
		}
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
