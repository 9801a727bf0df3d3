package cache

import (
	"testing"
	"testing/quick"

	"symbios/internal/rng"
)

// TestHitAfterFill: an access misses cold, then hits.
func TestHitAfterFill(t *testing.T) {
	c := New(64, 2, 64)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x103f) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) {
		t.Error("next-line access hit cold")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats %+v, want 2 hits 2 misses", s)
	}
}

// TestLRUReplacement: in a 2-way set, the least recently used way is the
// victim.
func TestLRUReplacement(t *testing.T) {
	c := New(1, 2, 64) // single set, 2 ways
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a) // fill way 0
	c.Access(b) // fill way 1
	c.Access(a) // touch a: b becomes LRU
	c.Access(d) // evicts b
	if !c.Probe(a) {
		t.Error("a was evicted but is MRU")
	}
	if c.Probe(b) {
		t.Error("b survived but was LRU")
	}
	if !c.Probe(d) {
		t.Error("d not resident after fill")
	}
}

// TestProbeIsPure: Probe changes neither contents nor stats.
func TestProbeIsPure(t *testing.T) {
	c := New(16, 2, 64)
	c.Access(0x40)
	before := c.Stats()
	for i := 0; i < 10; i++ {
		c.Probe(0x40)
		c.Probe(0x999940)
	}
	if c.Stats() != before {
		t.Error("Probe changed stats")
	}
	if !c.Probe(0x40) {
		t.Error("Probe lost a resident line")
	}
}

// TestFlush empties the cache.
func TestFlush(t *testing.T) {
	c := New(16, 2, 64)
	for i := uint64(0); i < 32; i++ {
		c.Access(i * 64)
	}
	if resident(c) == 0 {
		t.Fatal("nothing resident before flush")
	}
	c.Flush()
	if resident(c) != 0 {
		t.Errorf("%d lines resident after flush", resident(c))
	}
}

// TestResidencyBound is a property test: resident lines never exceed
// capacity, and hits+misses equals accesses.
func TestResidencyBound(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		c := New(8, 2, 64)
		r := rng.New(seed)
		for i := 0; i < int(n); i++ {
			c.Access(uint64(r.Intn(4096)) * 8)
		}
		s := c.Stats()
		return resident(c) <= 16 && s.Accesses() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSmallWorkingSetAlwaysHits: a working set that fits is never evicted.
func TestSmallWorkingSetAlwaysHits(t *testing.T) {
	c := New(64, 2, 64) // 8 KB
	// Touch 4 KB repeatedly.
	for round := 0; round < 4; round++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			c.Access(addr)
		}
	}
	s := c.Stats()
	if s.Misses != 64 {
		t.Errorf("%d misses, want exactly 64 compulsory", s.Misses)
	}
}

// TestGeometryPanics: invalid geometry is rejected at construction.
func TestGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(3, 2, 64) },
		func() { New(16, 0, 64) },
		func() { New(16, 2, 48) },
		func() { NewTLB(2, 8192) },
		func() { NewTLB(24, 8192) },
		func() { NewTLB(128, 5000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry accepted")
				}
			}()
			f()
		}()
	}
}

// TestCapacityAccessors checks New keeps the geometry it was given.
func TestCapacityAccessors(t *testing.T) {
	c := New(128, 4, 32)
	if c.Sets() != 128 || c.assoc != 4 || 1<<c.lineShift != 32 {
		t.Errorf("geometry wrong: %d/%d/%d", c.Sets(), c.assoc, 1<<c.lineShift)
	}
	if len(c.lines) != 128*4 {
		t.Errorf("%d ways, want %d", len(c.lines), 128*4)
	}
}

// TestResetStats preserves contents.
func TestResetStats(t *testing.T) {
	c := New(16, 2, 64)
	c.Access(0x80)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("stats not zeroed")
	}
	if !c.Probe(0x80) {
		t.Error("ResetStats evicted contents")
	}
}

// resident returns the number of filled ways.
func resident(c *Cache) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].stamp != 0 {
			n++
		}
	}
	return n
}
