package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like the real cache keys (hex digests), content varied.
		keys[i] = fmt.Sprintf("sha256:%064x", i*2654435761)
	}
	return keys
}

func nodeNames(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://10.0.0.%d:8372", i+1)
	}
	return nodes
}

func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"c", "a", "b"})
	b := NewRing([]string{"b", "b", "a", "", "c"})
	for _, k := range testKeys(200) {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("owner(%s) differs across construction orders: %q vs %q", k, oa, ob)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if _, ok := r.Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
}

// TestRingBoundedChurnOnLeave is the consistent-hashing contract: when a
// node leaves, the only keys that move are the ones it owned. Every
// other key keeps its owner exactly.
func TestRingBoundedChurnOnLeave(t *testing.T) {
	nodes := nodeNames(8)
	keys := testKeys(4000)
	full := NewRing(nodes)
	for _, leaver := range []int{0, 3, 7} {
		var rest []string
		for i, n := range nodes {
			if i != leaver {
				rest = append(rest, n)
			}
		}
		shrunk := NewRing(rest)
		moved := 0
		for _, k := range keys {
			before, _ := full.Owner(k)
			after, _ := shrunk.Owner(k)
			if before == after {
				continue
			}
			moved++
			if before != nodes[leaver] {
				t.Fatalf("key %s moved %q -> %q but %q never left", k, before, after, nodes[leaver])
			}
		}
		// The leaver owned ~1/8 of the keyspace; everything it owned moves,
		// nothing else does. Allow generous spread around K/N.
		if moved == 0 || moved > len(keys)/2 {
			t.Fatalf("leave of %q moved %d/%d keys, want ~%d", nodes[leaver], moved, len(keys), len(keys)/8)
		}
	}
}

// TestRingBoundedChurnOnJoin: a join steals keys only for the new node —
// no key moves between two pre-existing nodes.
func TestRingBoundedChurnOnJoin(t *testing.T) {
	nodes := nodeNames(8)
	keys := testKeys(4000)
	base := NewRing(nodes[:7])
	grown := NewRing(nodes)
	newcomer := nodes[7]
	moved := 0
	for _, k := range keys {
		before, _ := base.Owner(k)
		after, _ := grown.Owner(k)
		if before == after {
			continue
		}
		moved++
		if after != newcomer {
			t.Fatalf("key %s moved %q -> %q on join of %q (churn between survivors)", k, before, after, newcomer)
		}
	}
	// The newcomer should take roughly K/N = 500; require it lands in a
	// wide band so the test pins the property, not the hash function.
	if moved < len(keys)/32 || moved > len(keys)/2 {
		t.Fatalf("join moved %d/%d keys, want ~%d", moved, len(keys), len(keys)/8)
	}
}

// TestRingSpread sanity-checks the virtual-node count: with 64 vnodes no
// node's share should be wildly off uniform.
func TestRingSpread(t *testing.T) {
	nodes := nodeNames(4)
	r := NewRing(nodes)
	counts := map[string]int{}
	keys := testKeys(8000)
	for _, k := range keys {
		o, _ := r.Owner(k)
		counts[o]++
	}
	want := len(keys) / len(nodes)
	for _, n := range nodes {
		got := counts[n]
		if got < want/3 || got > want*3 {
			t.Fatalf("node %s owns %d of %d keys (uniform share %d): spread too skewed", n, got, len(keys), want)
		}
	}
}
