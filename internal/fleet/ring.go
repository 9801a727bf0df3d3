package fleet

import (
	"fmt"
	"sort"

	"symbios/internal/rng"
)

// Ring is an immutable consistent-hash ring with virtual nodes. Each
// backend owns VNodes points on a 64-bit circle; a key is served by the
// backend owning the first point at or clockwise of the key's hash, and its
// replicas are the next distinct backends continuing clockwise. Immutability
// is deliberate: the member set is fixed at construction (the front tier's
// -backends flag), and health ejection reorders *attempts*, never placement,
// so a key's replica set — and therefore which caches hold its response —
// is stable across the whole deployment's lifetime.
type Ring struct {
	backends []string
	points   []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the circle and the index of
// the backend that owns it.
type ringPoint struct {
	hash    uint64
	backend int
}

// hashString is the ring's hash: FNV-1a 64 finished through the splitmix64
// mixer. Plain FNV-1a avalanches poorly in its final bytes, so the
// sequential keys this ring actually sees ("mix|0", "mix|1", ...) land in
// adjacent runs and shard grossly unevenly; the post-mix restores full
// avalanche. No cryptographic strength needed, only a stable, well-mixed
// mapping every front-tier process computes identically (so a fleet of
// fronts shards the same way).
func hashString(s string) uint64 { return hashOf(s) }

// hashOf is hashString over a string or the raw bytes of a request body,
// without allocating: Dispatch hashes every body it routes.
func hashOf[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return rng.Hash(h, 0)
}

// NewRing builds a ring over backends with vnodes points each. Backends
// must be non-empty and distinct; vnodes < 1 selects 64 (enough that
// removing one of three backends moves close to its fair 1/3 share, see
// the rebalance property test).
func NewRing(backends []string, vnodes int) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one backend")
	}
	orDefault(&vnodes, 64)
	seen := make(map[string]bool, len(backends))
	r := &Ring{
		backends: append([]string(nil), backends...),
		points:   make([]ringPoint, 0, len(backends)*vnodes),
	}
	for i, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("fleet: empty backend address")
		}
		if seen[b] {
			return nil, fmt.Errorf("fleet: duplicate backend %q", b)
		}
		seen[b] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hashString(fmt.Sprintf("%s#%d", b, v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A full 64-bit collision between vnode labels is vanishingly rare;
		// break it by backend index so the order is still deterministic.
		return r.points[a].backend < r.points[b].backend
	})
	return r, nil
}

// Lookup returns up to n distinct backends for key, primary first, walking
// clockwise from the key's position. n <= 0 or n > len(backends) is clamped
// to the member count.
func (r *Ring) Lookup(key string, n int) []string {
	if n <= 0 || n > len(r.backends) {
		n = len(r.backends)
	}
	h := hashString(key)
	// First point with hash >= h, wrapping to 0.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for walked := 0; walked < len(r.points) && len(out) < n; walked++ {
		p := r.points[(i+walked)%len(r.points)]
		if taken[p.backend] {
			continue
		}
		taken[p.backend] = true
		out = append(out, r.backends[p.backend])
	}
	return out
}
