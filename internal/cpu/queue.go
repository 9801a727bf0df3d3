package cpu

// queue is one instruction queue. Its entries sit in age order at positions
// [0, hi) of ent, with holes (gi < 0) where entries issued or were purged;
// elig is the set of positions whose entry may issue this cycle. An entry
// joins elig once its slot's readiness bound is no later than the cycle
// being scanned; until then it is parked on the Core's readiness wheel, so
// the issue scan examines only entries that can act.
//
// Positions only grow between compactions. When a push finds no room past
// hi, compact slides the live entries down to [0, n) in order, so the
// buffer — twice the capacity, rounded up to whole bitset words — is
// compacted at most once per capacity's worth of dispatches.
type queue struct {
	ent  []qent
	elig []uint64 // bit p set: the entry at position p is eligible
	hi   int      // one past the youngest position in use
	n    int      // live entries
	cap  int      // configured capacity
}

// newQueues builds the integer and floating-point queues, sharing one
// allocation for their entries and one for their eligibility sets.
func newQueues(intCap, fpCap int) [numSides]queue {
	caps := [numSides]int{intCap, fpCap}
	var words [numSides]int
	for side, n := range caps {
		words[side] = (2*n + 63) / 64
	}
	ent := make([]qent, 64*(words[0]+words[1]))
	elig := make([]uint64, words[0]+words[1])
	return [numSides]queue{
		{ent: ent[: 64*words[0] : 64*words[0]], elig: elig[:words[0]:words[0]], cap: intCap},
		{ent: ent[64*words[0]:], elig: elig[words[0]:], cap: fpCap},
	}
}

// full reports whether dispatch must stall for a slot.
func (q *queue) full() bool { return q.n == q.cap }

// push appends e as the youngest entry and returns its position. The
// caller compacts first when hi has reached the end of the buffer (kept out
// of push so that push inlines into dispatch).
func (q *queue) push(e qent) int32 {
	p := q.hi
	q.ent[p] = e
	q.hi++
	q.n++
	return int32(p)
}

// setElig adds position p to the eligibility set.
func (q *queue) setElig(p int32) { q.elig[p>>6] |= 1 << (p & 63) }

// clearElig removes position p from the eligibility set.
func (q *queue) clearElig(p int) { q.elig[p>>6] &^= 1 << (p & 63) }

// remove empties position p.
func (q *queue) remove(p int) {
	q.ent[p].gi = -1
	q.clearElig(p)
	if q.n--; q.n == 0 {
		q.hi = 0
	}
}

// compact slides the live entries down to positions [0, n), keeping their
// order and their eligibility, and records each entry's new position in its
// slot record in u.
func (q *queue) compact(u []slot) {
	k := 0
	for p := 0; p < q.hi; p++ {
		e := q.ent[p]
		if e.gi < 0 {
			continue
		}
		// Positions below k hold final bits and [k, p) is already clear, so
		// moving bit p down to k never overwrites a bit still to be read.
		el := q.elig[p>>6] >> (p & 63) & 1
		q.clearElig(p)
		q.elig[k>>6] |= el << (k & 63)
		q.ent[k] = e
		u[e.gi].qpos = int32(k)
		k++
	}
	q.hi = k
}

// purge removes every entry of context ctx, then compacts.
func (q *queue) purge(ctx, winShift int, u []slot) {
	for p := 0; p < q.hi; p++ {
		if gi := q.ent[p].gi; gi >= 0 && int(gi)>>winShift == ctx {
			q.remove(p)
		}
	}
	q.compact(u)
}
