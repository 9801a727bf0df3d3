package experiments

import (
	"context"
	"math"
	"testing"
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
