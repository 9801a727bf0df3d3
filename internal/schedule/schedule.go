// Package schedule represents and enumerates jobschedules.
//
// A schedule is a covering set of coschedules such that every job appears in
// an equal number of coschedules (Section 3). Operationally a schedule is an
// ordering of the X schedulable entries plus the machine parameters (Y, Z):
// the first Y entries form the initial running set; at each timeslice expiry
// the Z longest-resident running entries are swapped out FIFO and replaced
// by the next Z entries of the circular order.
//
// Two schedules are identical if they coschedule the same tuples regardless
// of tuple order, which yields the distinct-schedule counts of the paper's
// Table 2:
//
//   - full swap of even groups (Z == Y, Y | X): set partitions of X jobs
//     into X/Y unordered groups — X! / ((Y!)^(X/Y) · (X/Y)!);
//   - rotating schedules (everything else): circular orderings of X jobs up
//     to rotation and reflection — (X−1)!/2.
package schedule

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"symbios/internal/rng"
)

// Schedule is an ordering of X schedulable entries with machine parameters.
type Schedule struct {
	// Order is a permutation of 0..X-1.
	Order []int
	// Y is the multithreading level (running set size).
	Y int
	// Z is the number of entries swapped per timeslice.
	Z int
}

// New validates and constructs a schedule.
func New(order []int, y, z int) (Schedule, error) {
	s := Schedule{Order: order, Y: y, Z: z}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// Validate checks that Order is a permutation and the parameters are sane.
func (s Schedule) Validate() error {
	x := len(s.Order)
	if x == 0 {
		return fmt.Errorf("schedule: empty order")
	}
	if s.Y < 1 || s.Y > x {
		return fmt.Errorf("schedule: Y=%d out of range for X=%d", s.Y, x)
	}
	if s.Z < 1 || s.Z > s.Y {
		return fmt.Errorf("schedule: Z=%d out of range for Y=%d", s.Z, s.Y)
	}
	if s.Y%s.Z != 0 {
		// With Z dividing Y every task is resident for exactly Y/Z slices,
		// so coverage over one rotation is equal ("all jobs must be
		// scheduled on the CPU for the same number of cycles"). Otherwise
		// the FIFO rotation locks into a permanently unfair pattern.
		return fmt.Errorf("schedule: Z=%d must divide Y=%d for equal coverage", s.Z, s.Y)
	}
	seen := make([]bool, x)
	for _, j := range s.Order {
		if j < 0 || j >= x || seen[j] {
			return fmt.Errorf("schedule: order %v is not a permutation", s.Order)
		}
		seen[j] = true
	}
	return nil
}

// X returns the number of schedulable entries.
func (s Schedule) X() int { return len(s.Order) }

// Partitioned reports whether the schedule degenerates to fixed coschedule
// tuples (full swap of evenly divided groups).
func (s Schedule) Partitioned() bool { return s.Z == s.Y && s.X()%s.Y == 0 }

// CycleSlices returns the number of timeslices after which the rotation
// returns to its initial running set: X / gcd(X, Z). Over one such
// rotation every task appears in exactly Y/gcd(X,Z) coschedules, so an
// evaluation that runs an integer multiple of this many slices gives every
// job equal CPU time.
func (s Schedule) CycleSlices() int { return Rotation(s.X(), s.Z) }

// Rotation is CycleSlices for any schedule of x entries swapping z per
// slice: x / gcd(x, z).
func Rotation(x, z int) int { return x / gcd(x, z) }

// Tuples returns the coschedules of one full rotation, in rotation order.
// For a partitioned schedule this is simply the fixed groups.
func (s Schedule) Tuples() [][]int {
	n := s.CycleSlices()
	// Simulate the FIFO queue mechanics.
	running := append([]int(nil), s.Order[:s.Y]...)
	queue := append([]int(nil), s.Order[s.Y:]...)
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, append([]int(nil), running...))
		// Swap out the Z longest-resident (the front of running), append
		// them to the queue tail, and admit Z from the queue head. With an
		// initially empty queue (X == Y) this rotates the running set onto
		// itself, which is the correct degenerate behaviour.
		z := s.Z
		queue = append(queue, running[:z]...)
		running = append(running[z:], queue[:z]...)
		queue = queue[z:]
	}
	return out
}

// Canonical returns a key equal for schedules that coschedule the same
// tuples: sorted sorted-tuples for partitioned schedules, and the
// lexicographically minimal rotation/reflection of the order otherwise.
func (s Schedule) Canonical() string {
	if s.Partitioned() {
		tuples := s.Tuples()
		parts := make([]string, len(tuples))
		for i, t := range tuples {
			tt := append([]int(nil), t...)
			sort.Ints(tt)
			parts[i] = intsKey(tt)
		}
		sort.Strings(parts)
		return "P|" + strings.Join(parts, "_")
	}
	return "C|" + intsKey(canonicalCycle(s.Order))
}

// Equal reports whether two schedules coschedule the same tuples.
func (s Schedule) Equal(o Schedule) bool {
	return s.Y == o.Y && s.Z == o.Z && s.Canonical() == o.Canonical()
}

// String renders the schedule in the paper's notation: job identifiers
// parsed by underbars delineating coschedules (partitioned), or the
// circular order joined by dashes (rotating).
func (s Schedule) String() string {
	if s.Partitioned() {
		tuples := s.Tuples()
		parts := make([]string, len(tuples))
		for i, t := range tuples {
			var b strings.Builder
			for _, j := range t {
				if s.X() > 10 {
					if b.Len() > 0 {
						b.WriteByte('.')
					}
					fmt.Fprintf(&b, "%d", j)
				} else {
					fmt.Fprintf(&b, "%d", j)
				}
			}
			parts[i] = b.String()
		}
		return strings.Join(parts, "_")
	}
	parts := make([]string, s.X())
	for i, j := range s.Order {
		parts[i] = fmt.Sprintf("%d", j)
	}
	return strings.Join(parts, "-")
}

func intsKey(xs []int) string {
	var b strings.Builder
	for i, v := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// canonicalCycle returns the lexicographically smallest sequence among all
// rotations of xs and of reversed xs.
func canonicalCycle(xs []int) []int {
	n := len(xs)
	best := make([]int, 0, n)
	try := func(seq []int, start int) {
		cand := make([]int, 0, n)
		for i := 0; i < n; i++ {
			cand = append(cand, seq[(start+i)%n])
		}
		if len(best) == 0 || lessInts(cand, best) {
			best = cand
		}
	}
	rev := make([]int, n)
	for i, v := range xs {
		rev[n-1-i] = v
	}
	for start := 0; start < n; start++ {
		try(xs, start)
		try(rev, start)
	}
	return best
}

func lessInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Count returns the number of distinct schedules for X entries at
// multithreading level y swapping z per slice (the paper's Table 2).
func Count(x, y, z int) *big.Int {
	if z == y && x%y == 0 {
		return countPartitions(x, y)
	}
	return countCycles(x)
}

// countPartitions computes X! / ((Y!)^(X/Y) · (X/Y)!).
func countPartitions(x, y int) *big.Int {
	n := new(big.Int).MulRange(1, int64(x)) // X!
	yf := new(big.Int).MulRange(1, int64(y))
	groups := x / y
	den := new(big.Int).Exp(yf, big.NewInt(int64(groups)), nil)
	den.Mul(den, new(big.Int).MulRange(1, int64(groups)))
	return n.Div(n, den)
}

// countCycles computes (X−1)!/2, with the degenerate small cases 1 for
// X <= 2 (a single circular order, its reflection being itself).
func countCycles(x int) *big.Int {
	if x <= 2 {
		return big.NewInt(1)
	}
	n := new(big.Int).MulRange(1, int64(x-1))
	return n.Div(n, big.NewInt(2))
}

// Enumerate returns every distinct schedule for the parameters, in a
// deterministic order. It refuses (returns an error) when the count exceeds
// limit, to keep accidental combinatorial explosions out of callers.
func Enumerate(x, y, z, limit int) ([]Schedule, error) {
	total := Count(x, y, z)
	if total.Cmp(big.NewInt(int64(limit))) > 0 {
		return nil, fmt.Errorf("schedule: %d entries has %s distinct schedules, above limit %d", x, total, limit)
	}
	var out []Schedule
	if z == y && x%y == 0 {
		for _, p := range enumeratePartitions(x, y) {
			order := make([]int, 0, x)
			for _, g := range p {
				order = append(order, g...)
			}
			out = append(out, Schedule{Order: order, Y: y, Z: z})
		}
		return out, nil
	}
	for _, ord := range enumerateCycles(x) {
		out = append(out, Schedule{Order: ord, Y: y, Z: z})
	}
	return out, nil
}

// enumeratePartitions generates all ways to split 0..x-1 into unordered
// groups of y, each group sorted, groups ordered by first element.
func enumeratePartitions(x, y int) [][][]int {
	var out [][][]int
	remaining := make([]int, x)
	for i := range remaining {
		remaining[i] = i
	}
	var rec func(rem []int, acc [][]int)
	rec = func(rem []int, acc [][]int) {
		if len(rem) == 0 {
			cp := make([][]int, len(acc))
			for i, g := range acc {
				cp[i] = append([]int(nil), g...)
			}
			out = append(out, cp)
			return
		}
		// The smallest remaining element anchors the next group, which
		// makes every partition appear exactly once.
		first := rem[0]
		rest := rem[1:]
		idx := make([]int, y-1)
		var choose func(start, k int)
		choose = func(start, k int) {
			if k == y-1 {
				group := make([]int, 0, y)
				group = append(group, first)
				newRem := make([]int, 0, len(rest)-(y-1))
				sel := make(map[int]bool, y-1)
				for _, i := range idx {
					sel[i] = true
				}
				for i, v := range rest {
					if sel[i] {
						group = append(group, v)
					} else {
						newRem = append(newRem, v)
					}
				}
				rec(newRem, append(acc, group))
				return
			}
			for i := start; i < len(rest); i++ {
				idx[k] = i
				choose(i+1, k+1)
			}
		}
		choose(0, 0)
	}
	rec(remaining, nil)
	return out
}

// enumerateCycles generates one representative of every circular order of
// 0..x-1 up to rotation and reflection: fix 0 first, permute the rest, and
// keep orders whose second element is smaller than the last (reflection
// dedup).
func enumerateCycles(x int) [][]int {
	if x == 1 {
		return [][]int{{0}}
	}
	if x == 2 {
		return [][]int{{0, 1}}
	}
	var out [][]int
	rest := make([]int, x-1)
	for i := range rest {
		rest[i] = i + 1
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(rest) {
			if rest[0] < rest[len(rest)-1] {
				ord := append([]int{0}, append([]int(nil), rest...)...)
				out = append(out, ord)
			}
			return
		}
		for i := k; i < len(rest); i++ {
			rest[k], rest[i] = rest[i], rest[k]
			rec(k + 1)
			rest[k], rest[i] = rest[i], rest[k]
		}
	}
	rec(0)
	return out
}

// Random returns a uniformly random schedule (not necessarily distinct from
// previous draws).
func Random(r *rng.Stream, x, y, z int) Schedule {
	return Schedule{Order: r.Perm(x), Y: y, Z: z}
}

// Sample draws up to n distinct schedules uniformly at random. If the space
// holds fewer than n distinct schedules it returns all of them (via
// enumeration). The paper's sample phase generates and evaluates 10 random
// schedules, or all of them when fewer exist (Jsb(4,2,2) has only 3).
func Sample(r *rng.Stream, x, y, z, n int) []Schedule {
	total := Count(x, y, z)
	if total.IsInt64() && total.Int64() <= int64(n) {
		all, err := Enumerate(x, y, z, n)
		if err == nil {
			return all
		}
	}
	seen := make(map[string]bool, n)
	var out []Schedule
	for len(out) < n {
		s := Random(r, x, y, z)
		key := s.Canonical()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}
