package parallel

import (
	"os"
	"testing"

	"symbios/internal/leakcheck"
)

// TestMain fails the package if any test leaks a goroutine — the worker
// pools here must always be joined.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.MainRun(m.Run))
}
