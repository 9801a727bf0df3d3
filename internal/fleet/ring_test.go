package fleet

import (
	"fmt"
	"hash/fnv"
	"testing"

	"symbios/internal/rng"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("Jsb(6,3,3)|%d", i)
	}
	return keys
}

// TestRingErrors checks construction rejects degenerate member sets.
func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Fatal("empty backend set accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 64); err == nil {
		t.Fatal("empty backend address accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 64); err == nil {
		t.Fatal("duplicate backend accepted")
	}
}

// TestRingLookupDeterministicAndDistinct checks a lookup is stable across
// rings built from the same member set and returns distinct backends.
func TestRingLookupDeterministicAndDistinct(t *testing.T) {
	backends := []string{"http://a", "http://b", "http://c", "http://d"}
	r1, err := NewRing(backends, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(backends, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(500) {
		got1 := r1.Lookup(key, 3)
		got2 := r2.Lookup(key, 3)
		if len(got1) != 3 {
			t.Fatalf("Lookup(%q, 3) = %v, want 3 backends", key, got1)
		}
		seen := map[string]bool{}
		for i, b := range got1 {
			if seen[b] {
				t.Fatalf("Lookup(%q) repeated backend %s", key, b)
			}
			seen[b] = true
			if got2[i] != b {
				t.Fatalf("Lookup(%q) differs across identical rings: %v vs %v", key, got1, got2)
			}
		}
	}
	// n clamps to the member count.
	if got := r1.Lookup("k", 99); len(got) != len(backends) {
		t.Fatalf("Lookup(k, 99) = %d backends, want %d", len(got), len(backends))
	}
	if got := r1.Lookup("k", 0); len(got) != len(backends) {
		t.Fatalf("Lookup(k, 0) = %d backends, want %d", len(got), len(backends))
	}
}

// TestRingBalance checks no backend owns a grossly outsized share of keys.
func TestRingBalance(t *testing.T) {
	backends := []string{"http://a", "http://b", "http://c", "http://d"}
	r, err := NewRing(backends, 128)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := testKeys(4000)
	for _, key := range keys {
		counts[r.Lookup(key, 1)[0]]++
	}
	fair := len(keys) / len(backends)
	for b, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("backend %s owns %d of %d keys (fair share %d): ring badly unbalanced %v",
				b, n, len(keys), fair, counts)
		}
	}
}

// TestRingRebalanceProperty is the consistent-hashing contract: removing
// one of N backends may move only the removed node's own keys — about 1/N
// of the keyspace — while every key whose primary survives keeps it. A
// modulo-sharded table would move (N-1)/N of the keys here.
func TestRingRebalanceProperty(t *testing.T) {
	full := []string{"http://a", "http://b", "http://c", "http://d", "http://e"}
	rFull, err := NewRing(full, 256)
	if err != nil {
		t.Fatal(err)
	}
	removed := full[2]
	rLess, err := NewRing(append(append([]string{}, full[:2]...), full[3:]...), 256)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(5000)
	moved := 0
	for _, key := range keys {
		before := rFull.Lookup(key, 1)[0]
		after := rLess.Lookup(key, 1)[0]
		if before != after {
			moved++
			if before != removed {
				t.Fatalf("key %q moved from surviving backend %s to %s", key, before, after)
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	want := 1.0 / float64(len(full))
	if frac < want/2 || frac > want*2 {
		t.Fatalf("removing 1 of %d backends moved %.1f%% of keys, want about %.1f%%",
			len(full), 100*frac, 100*want)
	}
}

// TestHashOfIsMixedFNV1a pins the hand-rolled, allocation-free hash to the
// definition placement has always used — hash/fnv's FNV-1a 64 through the
// splitmix64 mixer — for strings and raw bytes alike: a different value would
// silently move every key on the ring.
func TestHashOfIsMixedFNV1a(t *testing.T) {
	for _, s := range append(testKeys(50), "", "a", "http://127.0.0.1:8723#63", `{"mix":"Jsb(6,3,3)","seed":7}`) {
		h := fnv.New64a()
		h.Write([]byte(s))
		want := rng.Hash(h.Sum64(), 0)
		if got := hashString(s); got != want {
			t.Fatalf("hashString(%q) = %016x, want %016x", s, got, want)
		}
		if got := hashOf([]byte(s)); got != want {
			t.Fatalf("hashOf([]byte(%q)) = %016x, want %016x", s, got, want)
		}
	}
	body := []byte(`{"mix":"Jsb(6,3,3)","seed":7}`)
	if n := testing.AllocsPerRun(100, func() { hashOf(body) }); n != 0 {
		t.Fatalf("hashOf allocates %v times per call, want 0", n)
	}
}
