// Package cluster is oicd's distributed tier: a consistent-hash ring
// that assigns every content-addressed compile/run key an owner
// instance, static peer membership with health-probe-driven ejection and
// readmission, and a disk-backed cache store (append-only WAL plus
// compacted snapshots) that lets an instance restart warm.
//
// The design leans on a property the service already has: the cache key
// is SHA-256(Config.Fingerprint ⊕ filename ⊕ source) — pure content, no
// location — so any instance can compute the owner of any request
// without coordination, and the owner's existing in-process singleflight
// becomes cluster-wide dedup once every front-end forwards misses to it.
// See docs/CLUSTER.md for topology, failure modes, and the WAL format.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// virtualNodes is how many points each node projects onto the ring. 64
// keeps the ownership spread within a few tens of percent of uniform for
// small clusters while the ring stays tiny (N×64 points).
const virtualNodes = 64

// hash64 is the ring's hash: FNV-1a over the string, pushed through a
// 64-bit finalizer. Raw FNV clusters badly on the short, similar vnode
// labels ("http://host:port#0", "#1", ...) — measured skew was >5× off
// uniform with 64 vnodes — and the multiply/xor-shift finalizer
// (murmur3's) avalanches those near-identical inputs apart. Keys are
// already SHA-256 hex, so no adversarial resistance is needed.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// point is one virtual node: a position on the 64-bit circle and the
// node that owns the arc ending there.
type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over a set of node names
// (base URLs, in oicd's use). Build one with NewRing; membership changes
// build a new ring, so readers never lock.
type Ring struct {
	points []point
	nodes  []string
}

// NewRing builds a ring over nodes (duplicates and empties dropped) with
// virtualNodes points each.
func NewRing(nodes []string) *Ring {
	r := &Ring{}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	r.points = make([]point, 0, len(r.nodes)*virtualNodes)
	for _, n := range r.nodes {
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, point{hash64(n + "#" + strconv.Itoa(i)), n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so ring construction
		// is deterministic regardless of input order.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node owning key: the first virtual node clockwise
// from the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (node string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.at(key)].node, true
}

// at returns the index of the first point clockwise from key's hash.
func (r *Ring) at(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the largest point
	}
	return i
}
