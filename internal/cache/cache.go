// Package cache implements the simulated memory hierarchy: set-associative
// LRU caches (L1 instruction, L1 data, unified L2), and a 4-way
// set-associative data TLB.
//
// All levels are shared between hardware contexts, as on the modeled SMT
// processor. Jobs occupy disjoint virtual regions (see internal/trace), so
// coscheduled jobs interfere through set-index conflicts and capacity
// pressure — the "cache sweeping" interaction the paper discusses — and a
// job whose lines were evicted while it was swapped out pays cache coldstart
// costs when it returns (Section 8).
package cache

import "fmt"

// line is one cache way: a tag plus the LRU clock at its last use. The
// clock is incremented before every fill, so a filled way's stamp is at
// least 1 and stamp 0 marks an empty way (tag 0 is a legal tag).
type line struct {
	tag   uint64
	stamp uint64
}

// Stats counts cache events since construction or the last reset.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	sets      int
	assoc     int
	lineShift uint
	setMask   uint64
	lines     []line // sets*assoc, set-major
	clock     uint64
	stats     Stats
}

// New constructs a cache. sets and lineBytes must be powers of two and
// assoc >= 1; otherwise New panics, since geometry comes from a validated
// arch.Config.
func New(sets, assoc, lineBytes int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d not a power of two", sets))
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: lineBytes %d not a power of two", lineBytes))
	}
	if assoc < 1 {
		panic("cache: assoc < 1")
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
	}
	return &Cache{
		sets:      sets,
		assoc:     assoc,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		lines:     make([]line, sets*assoc),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Stats returns the event counts so far.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// index returns the slice of ways for addr's set and addr's tag.
func (c *Cache) index(addr uint64) (ways []line, tag uint64) {
	blk := addr >> c.lineShift
	set := int(blk & c.setMask)
	return c.lines[set*c.assoc : (set+1)*c.assoc], blk >> 0
}

// Access looks up addr, allocating the line on a miss (evicting the LRU
// way). It returns whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	ways, tag := c.index(addr)
	c.clock++
	for i := range ways {
		if ways[i].tag == tag && ways[i].stamp != 0 {
			ways[i].stamp = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	// The first way with the smallest stamp: the first empty way, else the
	// least recently used (filled stamps are distinct).
	victim := 0
	for i := 1; i < len(ways); i++ {
		if ways[i].stamp < ways[victim].stamp {
			victim = i
		}
	}
	ways[victim] = line{tag: tag, stamp: c.clock}
	return false
}

// Probe reports whether addr is resident without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	ways, tag := c.index(addr)
	for i := range ways {
		if ways[i].tag == tag && ways[i].stamp != 0 {
			return true
		}
	}
	return false
}

// Flush empties every way (used to model a cold machine).
func (c *Cache) Flush() { clear(c.lines) }
