package cache

import (
	"testing"

	"symbios/internal/arch"
)

// TestHierarchyLatencies: the latency of a data access reflects the level
// that served it.
func TestHierarchyLatencies(t *testing.T) {
	cfg := arch.Default21264(2)
	h := NewHierarchy(cfg)

	// Cold: TLB miss + L1 miss + L2 miss => full memory latency.
	lat, l1 := h.DataAccess(0x10000)
	wantCold := cfg.L1DHitLatency + cfg.TLBMissPenalty + cfg.L2HitLatency + cfg.MemLatency
	if l1 || lat != wantCold {
		t.Errorf("cold access: latency %d hit=%v, want %d false", lat, l1, wantCold)
	}

	// Warm: everything hits.
	lat, l1 = h.DataAccess(0x10000)
	if !l1 || lat != cfg.L1DHitLatency {
		t.Errorf("warm access: latency %d hit=%v, want %d true", lat, l1, cfg.L1DHitLatency)
	}

	// Evict from L1 only: the line stays in L2, so a re-access pays the L2
	// latency but not memory. Two more lines mapping to the same L1 set
	// evict the first (2-way L1).
	setStride := uint64(cfg.L1DSets * cfg.L1DLineBytes)
	h.DataAccess(0x10000 + setStride)
	h.DataAccess(0x10000 + 2*setStride)
	lat, l1 = h.DataAccess(0x10000)
	if l1 {
		t.Fatal("line survived deliberate L1 eviction")
	}
	if lat != cfg.L1DHitLatency+cfg.L2HitLatency {
		t.Errorf("L2 hit latency %d, want %d", lat, cfg.L1DHitLatency+cfg.L2HitLatency)
	}
}

// TestInstAccessStalls: icache hits are free; misses stall by the serving
// level's latency.
func TestInstAccessStalls(t *testing.T) {
	cfg := arch.Default21264(2)
	h := NewHierarchy(cfg)
	if stall := h.InstAccess(0x4000); stall != cfg.L2HitLatency+cfg.MemLatency {
		t.Errorf("cold fetch stall %d, want %d", stall, cfg.L2HitLatency+cfg.MemLatency)
	}
	if stall := h.InstAccess(0x4000); stall != 0 {
		t.Errorf("warm fetch stall %d, want 0", stall)
	}
}

// TestHierarchyFlushAndReset covers the maintenance entry points.
func TestHierarchyFlushAndReset(t *testing.T) {
	h := NewHierarchy(arch.Default21264(2))
	h.DataAccess(0x8000)
	h.InstAccess(0x9000)
	h.ResetStats()
	if h.L1D.Stats() != (Stats{}) || h.L1I.Stats() != (Stats{}) || h.L2.Stats() != (Stats{}) || h.DTLB.Stats() != (Stats{}) {
		t.Error("ResetStats left counters")
	}
	h.Flush()
	if resident(h.L1D) != 0 || resident(h.L2) != 0 {
		t.Error("Flush left lines resident")
	}
	if _, hit := h.DataAccess(0x8000); hit {
		t.Error("data resident after flush")
	}
}
