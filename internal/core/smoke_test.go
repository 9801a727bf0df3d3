package core

import (
	"context"
	"testing"
	"time"

	"symbios/internal/arch"
	"symbios/internal/workload"
)

// TestSoloIPCProfile reports each benchmark's solo IPC on the default core.
// It checks the coarse calibration targets: floating-point scientific codes
// run at high IPC, integer workstation codes at distinctly lower IPC.
func TestSoloIPCProfile(t *testing.T) {
	cfg := arch.Default21264(2)
	start := time.Now()
	total := uint64(0)
	ipcs := map[string]float64{}
	for _, name := range workload.Names() {
		spec := workload.MustLookup(name)
		spec.Threads = 1 // solo thread rate
		spec.SyncEvery = 0
		job := workload.MustNewJob(spec, 0, 42)
		rates, err := SoloRates(context.Background(), cfg, []*workload.Job{job}, []uint64{42}, 200_000, 300_000)
		if err != nil {
			t.Fatalf("calibrating %s: %v", name, err)
		}
		ipcs[name] = rates[0]
		total += 500_000
		t.Logf("%-9s solo IPC %.3f", name, rates[0])
	}
	elapsed := time.Since(start)
	t.Logf("simulated %d cycles in %v (%.2f Mcycles/s)", total, elapsed, float64(total)/elapsed.Seconds()/1e6)

	if ipcs["EP"] < ipcs["GO"] {
		t.Errorf("EP (%.2f) should out-run GO (%.2f)", ipcs["EP"], ipcs["GO"])
	}
	if ipcs["FP"] < ipcs["GCC"] {
		t.Errorf("FP (%.2f) should out-run GCC (%.2f)", ipcs["FP"], ipcs["GCC"])
	}
}
