package experiments

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"symbios/internal/trace"
)

// TestPairwiseMatrix: the symbiosis matrix is symmetric with a unit
// diagonal, and coscheduled pairs achieve weighted speedups in a plausible
// band (above serial time-sharing for compatible jobs). The three cells are
// also pinned bit-for-bit, so a change to how the cells fan out cannot move
// a result.
func TestPairwiseMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sc := Scale{
		Slice:         50_000,
		LittleDivisor: 4,
		SymbiosCycles: 2_000_000,
		WarmupCycles:  500_000,
		CalibWarmup:   500_000,
		CalibMeasure:  250_000,
		SampleRounds:  1,
		MaxSamples:    10,
		Seed:          2,
	}
	tbl, err := Pairwise(context.Background(), sc, []string{"EP", "GO", "MG"})
	if err != nil {
		t.Fatal(err)
	}
	n := len(tbl.Names)
	for i := 0; i < n; i++ {
		if tbl.WS[i][i] != 1 {
			t.Errorf("diagonal [%d][%d] = %f", i, i, tbl.WS[i][i])
		}
		for j := 0; j < n; j++ {
			if tbl.WS[i][j] != tbl.WS[j][i] {
				t.Errorf("asymmetry at [%d][%d]", i, j)
			}
			if i != j && (tbl.WS[i][j] < 0.3 || tbl.WS[i][j] > 2.5) {
				t.Errorf("pair %s+%s WS %.3f out of plausible band",
					tbl.Names[i], tbl.Names[j], tbl.WS[i][j])
			}
		}
	}
	for _, want := range []struct {
		i, j int
		bits uint64
	}{
		{0, 1, 0x3ffec9764a2a1ccc}, // EP+GO 1.9241850754786354
		{0, 2, 0x3ff08912b211fc0b}, // EP+MG 1.033465095126078
		{1, 2, 0x3ff9f349800972e5}, // GO+MG 1.621896267074754
	} {
		if got := math.Float64bits(tbl.WS[want.i][want.j]); got != want.bits {
			t.Errorf("pair %s+%s WS %v (%#x), pinned %#x", tbl.Names[want.i], tbl.Names[want.j],
				tbl.WS[want.i][want.j], got, want.bits)
		}
	}
	// EP (fp compute) + GO (int branchy) should symbiose: WS > 1.
	if tbl.WS[0][1] <= 1.0 {
		t.Errorf("EP+GO WS %.3f; diverse pair should exceed time-sharing", tbl.WS[0][1])
	}
}

// pollCtx answers its first after Err polls with nil and every later one
// with cancellation, counting them and calling onExpire at the first
// refused poll: a deterministic stand-in for a deadline firing mid-cell.
type pollCtx struct {
	context.Context
	after    int64
	polls    atomic.Int64
	onExpire func()
}

func (c *pollCtx) Err() error {
	switch n := c.polls.Add(1); {
	case n <= c.after:
		return nil
	case n == c.after+1:
		c.onExpire()
	}
	return context.Canceled
}

// TestPairwiseStopsWithinOnePoll: a pair cell polls its context as it
// simulates, so a context that expires mid-cell stops Pairwise at the
// cell's next poll: nothing is simulated after the poll that sees the
// expiry, although the cell had millions of cycles left to run.
func TestPairwiseStopsWithinOnePoll(t *testing.T) {
	sc := Scale{
		SymbiosCycles: 8_000_000, // a 2M-cycle measurement
		WarmupCycles:  2_000_000,
		CalibWarmup:   20_000,
		CalibMeasure:  20_000,
		Seed:          2,
	}
	var generated, atExpiry atomic.Int64
	trace.SetFillHook(func(n int) { generated.Add(int64(n)) })
	defer trace.SetFillHook(nil)
	// The two calibrations and the fan-outs poll a few times each; the
	// rest of the allowance is the cell's, 100k cycles a poll.
	ctx := &pollCtx{Context: context.Background(), after: 20, onExpire: func() { atExpiry.Store(generated.Load()) }}
	_, err := Pairwise(ctx, sc, []string{"EP", "GO"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v after %d polls, want context.Canceled", err, ctx.polls.Load())
	}
	if after := generated.Load() - atExpiry.Load(); after != 0 {
		t.Errorf("%d instructions generated after the context expired, want 0", after)
	}
}
