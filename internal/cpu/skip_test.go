package cpu

import (
	"fmt"
	"slices"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/rng"
)

// The skip-ahead oracle. Run jumps over quiescent cycles; stepping the same
// core one cycle at a time through step() is its definition. Each generated
// script — a random machine configuration and a random sequence of Attach,
// Detach and Run(n) — drives two cores, one through Run and one through a
// plain loop of step(), and every observable after every operation must
// agree: counter snapshots, the cycle, each context's committed count and
// every Detach's resume point.

// scriptThread is one software thread a script can attach: a plain stream,
// or one thread of a two-thread job whose SYNC barriers a gate coordinates.
type scriptThread struct {
	name  string
	seed  uint64
	space int
	job   int    // gated job index, or -1
	id    int    // thread id within the gated job
	sync  uint64 // a gated thread's SYNC interval
}

// skipPair is the two cores of one script with each one's barrier gates.
type skipPair struct {
	skip, step *Core
	gates      [2][]*testGate
	threads    []scriptThread
	seqs       []uint64 // resume seq per thread
	onCtx      []int    // thread attached to each context, or -1
}

// randomConfig draws a machine configuration: 1..maxCtx contexts and
// random widths, window, queues, rename pools and unit counts.
func randomConfig(r *rng.Stream, maxCtx int) arch.Config {
	cfg := arch.Default21264(1 + r.Intn(maxCtx))
	cfg.FetchWidth = 1 + r.Intn(8)
	cfg.FetchThreads = 1 + r.Intn(2)
	cfg.IssueWidth = 1 + r.Intn(8)
	cfg.RetireWidth = 1 + r.Intn(8)
	cfg.WindowSize = 8 << r.Intn(4) // 8..64, power of two
	cfg.IntQueue = 4 + r.Intn(24)
	cfg.FPQueue = 4 + r.Intn(16)
	cfg.IntRenameRegs = 8 + r.Intn(48)
	cfg.FPRenameRegs = 8 + r.Intn(48)
	cfg.IntALUs = 1 + r.Intn(4)
	cfg.FPUnits = 1 + r.Intn(3)
	cfg.LSUnits = 1 + r.Intn(3)
	if r.Intn(2) == 0 {
		cfg.FetchPolicy = arch.FetchRoundRobin
	}
	return cfg
}

// checkSkipScript generates the script for seed and runs it on both cores,
// failing at the first operation after which they disagree.
func checkSkipScript(t *testing.T, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	cfg := randomConfig(r, 8)
	cfg.MispredictPenalty = r.Intn(16)
	p := &skipPair{skip: mustCore(t, cfg), step: mustCore(t, cfg)}

	names := []string{"FP", "MG", "GCC", "GO", "EP", "IS", "WAVE"}
	for i := 0; i < 3+r.Intn(5); i++ {
		p.threads = append(p.threads, scriptThread{
			name: names[r.Intn(len(names))], seed: r.Uint64(), space: i, job: -1})
	}
	for j := 0; j < 1+r.Intn(2); j++ {
		interval := uint64(20 + r.Intn(400))
		for id := 0; id < 2; id++ {
			p.threads = append(p.threads, scriptThread{
				seed: r.Uint64(), space: len(p.threads), job: j, id: id, sync: interval})
		}
		for k := range p.gates {
			p.gates[k] = append(p.gates[k], &testGate{})
		}
	}
	p.seqs = make([]uint64, len(p.threads))
	p.onCtx = make([]int, cfg.Contexts)
	for ctx := range p.onCtx {
		p.onCtx[ctx] = -1
	}

	ops := 10 + r.Intn(30)
	for op := 0; op < ops; op++ {
		ctx := r.Intn(cfg.Contexts)
		var what string
		if th := p.onCtx[ctx]; th >= 0 {
			ra, ca := p.skip.Detach(ctx)
			rb, cb := p.step.Detach(ctx)
			if ra != rb || ca != cb {
				t.Fatalf("seed %d op %d: Detach(%d) = (%d, %d) through Run, (%d, %d) stepped",
					seed, op, ctx, ra, ca, rb, cb)
			}
			p.seqs[th] = ra
			p.onCtx[ctx] = -1
			what = fmt.Sprintf("Detach(%d)", ctx)
		} else if th := r.Intn(len(p.threads)); !slices.Contains(p.onCtx, th) {
			p.attach(t, 0, ctx, th)
			p.attach(t, 1, ctx, th)
			p.onCtx[ctx] = th
			what = fmt.Sprintf("Attach(%d, thread %d)", ctx, th)
		}
		if what != "" {
			if err := p.compare(); err != nil {
				t.Fatalf("seed %d op %d, after %s: %v", seed, op, what, err)
			}
		}
		n := uint64(1 + r.Intn(1000))
		if r.Intn(4) == 0 {
			n = uint64(1 + r.Intn(20_000))
		}
		p.skip.Run(n)
		for target := p.step.cycle + n; p.step.cycle < target; {
			p.step.step()
		}
		if err := p.compare(); err != nil {
			t.Fatalf("seed %d op %d, after Run(%d): %v", seed, op, n, err)
		}
	}
}

// attach binds thread th to context ctx of core k (0 runs, 1 steps), from
// the thread's resume seq, with fresh sources so the cores share nothing.
func (p *skipPair) attach(t *testing.T, k, ctx, th int) {
	c := []*Core{p.skip, p.step}[k]
	s := p.threads[th]
	if s.job < 0 {
		c.Attach(ctx, mkSource(t, s.name, s.seed, s.space), p.seqs[th], nil, 0)
		return
	}
	c.Attach(ctx, mkSyncSource(t, s.seed, s.space, s.sync), p.seqs[th], p.gates[k][s.job], s.id)
}

// compare reports the first observable on which the two cores differ.
func (p *skipPair) compare() error {
	a, b := p.skip, p.step
	if a.Cycle() != b.Cycle() {
		return fmt.Errorf("cycle %d through Run, %d stepped", a.Cycle(), b.Cycle())
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); sa != sb {
		return fmt.Errorf("snapshots differ at cycle %d:\n run  %+v\n step %+v", a.Cycle(), sa, sb)
	}
	for ctx := range p.onCtx {
		if ca, cb := a.ThreadCommitted(ctx), b.ThreadCommitted(ctx); ca != cb {
			return fmt.Errorf("context %d committed %d through Run, %d stepped", ctx, ca, cb)
		}
	}
	return nil
}

// TestSkipMatchesStepping runs generated scripts through Run and through
// single steps and requires identical observables after every operation.
func TestSkipMatchesStepping(t *testing.T) {
	n := uint64(60)
	if testing.Short() {
		n = 10
	}
	for seed := uint64(1); seed <= n; seed++ {
		checkSkipScript(t, seed)
	}
}

// FuzzSkipMatchesStepping searches script seeds for one on which Run and
// stepping disagree.
func FuzzSkipMatchesStepping(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed * 0x9e3779b97f4a7c15)
	}
	f.Fuzz(checkSkipScript)
}
