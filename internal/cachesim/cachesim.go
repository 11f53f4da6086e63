// Package cachesim models a small set-associative data cache with LRU
// replacement. The VM feeds it the synthetic heap addresses of every field
// and array-element access, and the resulting hit/miss counts drive the
// memory component of the cost model (DESIGN.md §2: this stands in for the
// SparcStation memory system in the paper's Figure 17 measurements).
package cachesim

import "fmt"

// Config describes a set-associative cache.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size; must be a power of two
	Ways      int // associativity; 0 means DefaultConfig.Ways
}

// DefaultConfig is a 16 KiB 4-way cache with 32-byte lines, in the spirit
// of the on-chip data caches of mid-90s SPARC workstations (the
// SuperSPARC's 16 KiB data cache was 4-way associative).
var DefaultConfig = Config{SizeBytes: 16 * 1024, LineBytes: 32, Ways: 4}

// Cache simulates a set-associative LRU cache. The zero value is not
// usable; construct with New.
type Cache struct {
	lineShift uint
	numSets   uint64
	// pow2 reports numSets is a power of two (DefaultConfig's is), so the
	// set index is line&setMask instead of a divide; other geometries take
	// line%numSets.
	pow2    bool
	setMask uint64
	ways    int
	// tags[set*ways+way], ordered most-recently-used first within a set;
	// 0 means empty.
	tags []uint64
}

// New builds a cache for the given configuration.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cachesim: line size %d not a power of two", cfg.LineBytes))
	}
	ways := cfg.Ways
	if ways <= 0 {
		ways = DefaultConfig.Ways
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / ways
	if sets <= 0 {
		panic("cachesim: cache smaller than one set")
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{lineShift: shift, numSets: uint64(sets), ways: ways, tags: make([]uint64, sets*ways)}
	if sets&(sets-1) == 0 {
		c.pow2, c.setMask = true, uint64(sets-1)
	}
	return c
}

// Access simulates one access to addr and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	if !c.pow2 {
		set = line % c.numSets
	}
	tag := line + 1 // avoid the zero "empty" encoding
	base := int(set) * c.ways
	ways := c.tags[base : base+c.ways : base+c.ways]
	if ways[0] == tag {
		return true // already most recently used
	}
	// Shift each way down one until the hit way (a hit) or the LRU way (a
	// miss, evicting it) is overwritten, then install tag at MRU.
	prev := ways[0]
	for w := 1; w < len(ways); w++ {
		cur := ways[w]
		ways[w] = prev
		if cur == tag {
			ways[0] = tag
			return true
		}
		prev = cur
	}
	ways[0] = tag
	return false
}
