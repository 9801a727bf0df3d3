package trace

// Tape geometry, for the external tests that straddle chunk edges and the
// horizon.
const (
	TapeChunkLen = tapeChunkLen
	TapeHorizon  = tapeHorizon
)
