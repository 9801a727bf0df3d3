package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
)

// Figure 5 and Figure 6 at QuickQueueScale, pinned byte for byte as their
// JSON rows. Regenerate with:
//
//	go test ./internal/experiments -run TestResponseGolden -update-golden
const responseGoldenPath = "testdata/golden_response.json"

// TestResponseGolden runs both figures and compares their rows with the
// pinned ones. The scheduler code they run is race-checked by
// TestResponseCompare; under the race detector this test would add the
// two figures' twenty-odd seconds of simulation several times over, so it
// runs in the plain suite only.
func TestResponseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	if raceEnabled {
		t.Skip("plain suite only: the race detector multiplies its simulation time")
	}
	ctx := context.Background()
	fig5, err := Figure5(ctx, QuickQueueScale())
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := Figure6(ctx, QuickQueueScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(map[string][]ResponseRow{"figure5": fig5, "figure6": fig6}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.WriteFile(responseGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", responseGoldenPath)
		return
	}
	want, err := os.ReadFile(responseGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden on trusted schedulers): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Figure 5/6 rows differ from %s:\n got %s\nwant %s", responseGoldenPath, got, want)
	}
}
