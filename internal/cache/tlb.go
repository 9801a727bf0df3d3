package cache

import "fmt"

// TLB is a set-associative translation lookaside buffer with LRU
// replacement within each set, keyed by virtual page number. (Hardware TLBs
// are often fully associative; a 4-way TLB of the same capacity behaves
// nearly identically for the workloads here and probes in constant time.)
type TLB struct {
	pageShift uint
	setMask   uint64
	assoc     int
	entries   []tlbEntry // sets*assoc, set-major
	clock     uint64
	stats     Stats
}

// tlbEntry is one TLB way. As for a cache line, stamp 0 marks an empty
// way: the clock is incremented before every fill.
type tlbEntry struct {
	vpn   uint64
	stamp uint64
}

// tlbAssoc is the fixed associativity.
const tlbAssoc = 4

// NewTLB constructs a TLB with the given entry count and page size.
// entries must be a multiple of the associativity (4) with a power-of-two
// set count; pageBytes must be a power of two.
func NewTLB(entries, pageBytes int) *TLB {
	if entries < tlbAssoc {
		panic("cache: TLB entries < associativity")
	}
	sets := entries / tlbAssoc
	if sets*tlbAssoc != entries || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: TLB entries %d must be 4 x power-of-two", entries))
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("cache: pageBytes %d not a power of two", pageBytes))
	}
	shift := uint(0)
	for 1<<shift != pageBytes {
		shift++
	}
	return &TLB{
		pageShift: shift,
		setMask:   uint64(sets - 1),
		assoc:     tlbAssoc,
		entries:   make([]tlbEntry, entries),
	}
}

// Stats returns the event counts so far.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters without touching contents.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Access translates addr, filling the entry on a miss. Returns hit.
func (t *TLB) Access(addr uint64) bool {
	vpn := addr >> t.pageShift
	set := int(vpn&t.setMask) * t.assoc
	ways := t.entries[set : set+t.assoc]
	t.clock++
	// On a miss, the victim is the last way with the smallest stamp: the
	// last empty way, else the least recently used.
	victim := 0
	for i := range ways {
		e := &ways[i]
		if e.vpn == vpn && e.stamp != 0 {
			e.stamp = t.clock
			t.stats.Hits++
			return true
		}
		if e.stamp <= ways[victim].stamp {
			victim = i
		}
	}
	t.stats.Misses++
	ways[victim] = tlbEntry{vpn: vpn, stamp: t.clock}
	return false
}

// Flush empties every way.
func (t *TLB) Flush() { clear(t.entries) }
