package cachesim

import (
	"fmt"
	"math/rand"
	"testing"
)

// access runs addr through c and adds the result to *hits or *misses.
func access(c *Cache, addr uint64, hits, misses *int) {
	if c.Access(addr) {
		*hits++
	} else {
		*misses++
	}
}

func TestHitAfterFirstAccess(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 2})
	if c.Access(0) {
		t.Fatal("first access must miss")
	}
	if !c.Access(8) {
		t.Fatal("same-line access must hit")
	}
}

func TestWorkingSetFits(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 4})
	// 16 lines of capacity; sweep 8 lines repeatedly: after the cold
	// pass, everything hits.
	var hits, misses int
	for sweep := 0; sweep < 10; sweep++ {
		for i := uint64(0); i < 8; i++ {
			access(c, i*32, &hits, &misses)
		}
	}
	if misses != 8 {
		t.Fatalf("misses = %d, want 8 cold misses", misses)
	}
}

func TestCyclicSweepLargerThanCacheThrashes(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 4})
	// Capacity 32 lines; cyclic sweep over 48 lines with LRU must miss
	// every time (the classic LRU worst case).
	var hits, misses int
	for sweep := 0; sweep < 10; sweep++ {
		for i := uint64(0); i < 48; i++ {
			access(c, i*32, &hits, &misses)
		}
	}
	if hits != 0 {
		t.Fatalf("hits = %d, want 0 on cyclic thrash", hits)
	}
}

func TestAssociativityAvoidsConflicts(t *testing.T) {
	// Two lines that map to the same set coexist with 2 ways but fight
	// with 1 way.
	direct := New(Config{SizeBytes: 256, LineBytes: 32, Ways: 1}) // 8 sets
	twoWay := New(Config{SizeBytes: 256, LineBytes: 32, Ways: 2}) // 4 sets
	a, b := uint64(0), uint64(256)                                // same set in the direct-mapped cache
	var directHits, twoWayHits, misses int
	for i := 0; i < 10; i++ {
		access(direct, a, &directHits, &misses)
		access(direct, b, &directHits, &misses)
		access(twoWay, a, &twoWayHits, &misses)
		access(twoWay, b, &twoWayHits, &misses)
	}
	if directHits != 0 {
		t.Errorf("direct-mapped conflicting lines should never hit, got %d", directHits)
	}
	if twoWayHits != 18 {
		t.Errorf("two-way hits = %d, want 18", twoWayHits)
	}
}

// refLRU is a reference set-associative LRU cache: each set is a
// move-to-front list, most recently used first, and the set index is
// always line % sets.
type refLRU struct {
	lineShift uint
	sets      uint64
	ways      int
	tags      []uint64 // tags[set*ways+way]; 0 means empty
}

func newRefLRU(cfg Config) *refLRU {
	c := New(cfg) // the same geometry and validation
	return &refLRU{lineShift: c.lineShift, sets: c.numSets, ways: c.ways, tags: make([]uint64, len(c.tags))}
}

func (r *refLRU) access(addr uint64) bool {
	line := addr >> r.lineShift
	tag := line + 1
	set := r.tags[int(line%r.sets)*r.ways:][:r.ways]
	for w, t := range set {
		if t == tag {
			copy(set[1:w+1], set[:w])
			set[0] = tag
			return true
		}
	}
	copy(set[1:], set[:r.ways-1])
	set[0] = tag
	return false
}

// TestMatchesReferenceLRU runs seeded address streams through Cache and
// through the move-to-front reference over geometries with 1 to 8 ways,
// power-of-two and other set counts (a 12 KiB 4-way cache has 96 sets),
// and requires the same hit/miss sequence access by access.
func TestMatchesReferenceLRU(t *testing.T) {
	configs := []Config{
		DefaultConfig,
		{SizeBytes: 1024, LineBytes: 32, Ways: 1},
		{SizeBytes: 1024, LineBytes: 32, Ways: 2},
		{SizeBytes: 1024, LineBytes: 32, Ways: 3},
		{SizeBytes: 2048, LineBytes: 64, Ways: 8},
		{SizeBytes: 12 * 1024, LineBytes: 32, Ways: 4}, // 96 sets
		{SizeBytes: 96 * 16, LineBytes: 16, Ways: 1},   // 96 sets, direct-mapped
		{SizeBytes: 7 * 5 * 32, LineBytes: 32, Ways: 5},
		{SizeBytes: 256, LineBytes: 32, Ways: 8}, // one set
		{SizeBytes: 256, LineBytes: 32},          // default ways
	}
	streams := map[string]func(rng *rand.Rand, i int) uint64{
		// The stride stream sweeps far more lines than any cache holds.
		"stride13": func(_ *rand.Rand, i int) uint64 { return uint64(i) * 13 },
		// Uniform over a span a little larger than the biggest cache.
		"uniform": func(rng *rand.Rand, _ int) uint64 { return uint64(rng.Intn(20 * 1024)) },
		// Mostly a hot working set with occasional far accesses, the
		// VM's pattern: many hits at every way position.
		"hot": func(rng *rand.Rand, _ int) uint64 {
			if rng.Intn(8) == 0 {
				return uint64(rng.Int63n(1 << 30))
			}
			return uint64(rng.Intn(4096))
		},
	}
	for _, cfg := range configs {
		for name, next := range streams {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%d-%d-%d/%s/%d", cfg.SizeBytes, cfg.LineBytes, cfg.Ways, name, seed), func(t *testing.T) {
					c, ref := New(cfg), newRefLRU(cfg)
					rng := rand.New(rand.NewSource(seed))
					hits := 0
					for i := 0; i < 20_000; i++ {
						addr := next(rng, i)
						got, want := c.Access(addr), ref.access(addr)
						if got != want {
							t.Fatalf("access %d (addr %#x): hit=%v, reference hit=%v", i, addr, got, want)
						}
						if got {
							hits++
						}
					}
					if hits == 0 && name == "hot" {
						t.Error("hot stream never hit: the comparison exercised no hits")
					}
				})
			}
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 64, LineBytes: 33},
		{SizeBytes: 16, LineBytes: 32, Ways: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
