package report

import (
	"strings"
	"testing"
)

// TestMatrix renders a small symmetric matrix.
func TestMatrix(t *testing.T) {
	var b strings.Builder
	err := Matrix(&b, []string{"FP", "GO"}, [][]float64{{1, 1.4}, {1.4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "1.400") || !strings.Contains(out, "FP") {
		t.Errorf("matrix content wrong:\n%s", out)
	}
	if err := Matrix(&b, []string{"FP"}, nil); err == nil {
		t.Error("row mismatch accepted")
	}
	if err := Matrix(&b, []string{"FP"}, [][]float64{{1, 2}}); err == nil {
		t.Error("ragged row accepted")
	}
}
