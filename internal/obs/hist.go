package obs

// Log-bucketed latency histograms. The service-level counterpart of the
// compiler's phase tracing: every request's end-to-end latency lands in
// one histogram cell keyed by {endpoint, cache status, engine, session
// tier}, cheap enough to run on every request (atomic bucket increments,
// a read-locked label lookup) and rich enough to answer "what is p99 for
// warm compile hits" without a client-side measurement.
//
// Buckets are fixed at construction: powers of two from 10µs up, so two
// histograms are always mergeable and the Prometheus exposition's `le`
// boundaries never move between scrapes. The price is bounded quantile
// resolution — an estimate is exact to its bucket and linearly
// interpolated within it, so it can sit up to one bucket width (2×) off
// the true order statistic. The serve benchmark's server-vs-client
// comparison accounts for exactly that.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histMinBound is the first bucket boundary. Warm cache hits on modern
// hardware land around tens of microseconds, so the scale starts there.
const histMinBound = 10 * time.Microsecond

// histBounds is the number of finite bucket boundaries: 10µs × 2^i for
// i in [0, histBounds). The last finite boundary is ~2.8 minutes, past
// the server's maximum request deadline, so the overflow bucket is
// reserved for clock anomalies rather than real traffic.
const histBounds = 25

// numBuckets counts the histogram's cells: one per finite boundary plus
// the +Inf overflow.
const numBuckets = histBounds + 1

// BucketBounds returns the finite bucket boundaries, smallest first.
// Shared by the exposition writer and its consumers (the serve benchmark
// parses a scrape back into these).
func BucketBounds() []time.Duration {
	b := make([]time.Duration, histBounds)
	for i := range b {
		b[i] = histMinBound << i
	}
	return b
}

// bucketIndex maps a duration to the index of the smallest boundary that
// contains it (histBounds for the overflow bucket). Negative durations
// clamp to the first bucket.
func bucketIndex(d time.Duration) int {
	if d <= histMinBound {
		return 0
	}
	// Index = ceil(log2(d / histMinBound)): count the doublings of the
	// first boundary needed to cover d.
	n := uint64(d)
	base := uint64(histMinBound)
	q := (n + base - 1) / base
	idx := 0
	for v := uint64(1); v < q; v <<= 1 {
		idx++
	}
	if idx >= histBounds {
		return histBounds
	}
	return idx
}

// Histogram is one latency distribution: atomic per-bucket counts plus a
// running sum, safe for concurrent Observe with no lock on the hot path.
type Histogram struct {
	buckets  [numBuckets]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Snapshot copies the histogram's current state. Concurrent Observes may
// land between field reads, so Count can momentarily disagree with the
// bucket sum by in-flight observations; callers needing an exact
// invariant quiesce writers first (the tests do).
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNanos = h.sumNanos.Load()
	return s
}

// Snapshot is a point-in-time copy of one histogram, mergeable and
// queryable without further synchronization.
type Snapshot struct {
	// Counts holds per-bucket (non-cumulative) observation counts; the
	// last cell is the +Inf overflow.
	Counts   [numBuckets]uint64
	Count    uint64
	SumNanos int64
}

// Merge adds other's observations into s.
func (s *Snapshot) Merge(other Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Count += other.Count
	s.SumNanos += other.SumNanos
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank. Returns 0 on
// an empty snapshot. Overflow-bucket estimates clamp to the largest
// finite boundary — the histogram cannot see past it.
func (s Snapshot) Quantile(q float64) time.Duration {
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= histBounds {
			return histMinBound << (histBounds - 1)
		}
		hi := float64(histMinBound << i)
		lo := 0.0
		if i > 0 {
			lo = float64(histMinBound << (i - 1))
		}
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return time.Duration(lo + (hi-lo)*frac)
	}
	return histMinBound << (histBounds - 1)
}

// QuantileFromScrape estimates a quantile from Prometheus-style
// cumulative histogram buckets: les are the `le` boundaries in seconds
// (ascending, +Inf as math.Inf(1)) and cum the cumulative counts at each.
// The server's latency-agreement test uses it to turn a
// /metrics?format=prometheus scrape back into the same estimate the
// server would compute.
func QuantileFromScrape(les []float64, cum []uint64, q float64) time.Duration {
	if len(les) == 0 || len(les) != len(cum) {
		return 0
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var prevCum uint64
	prevLe := 0.0
	for i, c := range cum {
		if float64(c) >= rank {
			le := les[i]
			if math.IsInf(le, 1) {
				// Clamp to the last finite boundary, as Snapshot.Quantile does.
				if i > 0 {
					return time.Duration(les[i-1] * float64(time.Second))
				}
				return 0
			}
			inBucket := float64(c - prevCum)
			frac := 0.0
			if inBucket > 0 {
				frac = (rank - float64(prevCum)) / inBucket
			}
			return time.Duration((prevLe + (le-prevLe)*frac) * float64(time.Second))
		}
		prevCum = c
		if !math.IsInf(les[i], 1) {
			prevLe = les[i]
		}
	}
	return time.Duration(prevLe * float64(time.Second))
}

// Labels keys one histogram cell. Every field is bounded: Endpoint is a
// mux route pattern (not a raw path), the rest are small enums, so the
// vec's cardinality is a product of small constants, never
// client-controlled.
type Labels struct {
	Endpoint string // route pattern, e.g. "/v1/compile" or "/v1/session/{id}"
	Cache    string // "hit", "miss", or "none" for uncached endpoints
	Engine   string // "vm", "native", or "none" for non-run requests
	Tier     string // session tier (reuse/patch/reopt/solve/cold) or "none"
}

// HistogramVec is a set of Histograms keyed by Labels. Steady-state
// lookups take the read lock; only a label set's first observation takes
// the write lock. One lock is enough: on a 2-CPU Xeon (Go 1.24), two
// goroutines calling Observe back to back took 250–310 ns per call under
// it against 190–230 ns with 16 FNV-hashed lock stripes, and one took
// 100–120 ns against 160–170 ns. Either gap is under 0.05% of a served
// request (~0.2 ms at the serve benchmark's median).
type HistogramVec struct {
	mu sync.RWMutex
	m  map[Labels]*Histogram
}

// NewHistogramVec returns an empty vec.
func NewHistogramVec() *HistogramVec {
	return &HistogramVec{m: make(map[Labels]*Histogram)}
}

// Get returns the histogram for l, creating it on first use.
func (v *HistogramVec) Get(l Labels) *Histogram {
	v.mu.RLock()
	h := v.m[l]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.m[l]; h == nil {
		h = &Histogram{}
		v.m[l] = h
	}
	return h
}

// Observe records d under l.
func (v *HistogramVec) Observe(l Labels, d time.Duration) {
	v.Get(l).Observe(d)
}

// LabeledSnapshot pairs a label set with its snapshot.
type LabeledSnapshot struct {
	Labels   Labels
	Snapshot Snapshot
}

// Snapshots returns every cell's snapshot in a deterministic label
// order (the Prometheus exposition depends on scrape stability).
func (v *HistogramVec) Snapshots() []LabeledSnapshot {
	var out []LabeledSnapshot
	v.mu.RLock()
	for l, h := range v.m {
		out = append(out, LabeledSnapshot{Labels: l, Snapshot: h.Snapshot()})
	}
	v.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool {
		la, lb := out[a].Labels, out[b].Labels
		if la.Endpoint != lb.Endpoint {
			return la.Endpoint < lb.Endpoint
		}
		if la.Cache != lb.Cache {
			return la.Cache < lb.Cache
		}
		if la.Engine != lb.Engine {
			return la.Engine < lb.Engine
		}
		return la.Tier < lb.Tier
	})
	return out
}

// Endpoint aggregates every cell of one endpoint (across cache, engine,
// and tier) into a single snapshot — the /metrics JSON's per-endpoint
// p50/p95/p99 come from here.
func (v *HistogramVec) Endpoint(endpoint string) Snapshot {
	var agg Snapshot
	v.mu.RLock()
	for l, h := range v.m {
		if l.Endpoint == endpoint {
			agg.Merge(h.Snapshot())
		}
	}
	v.mu.RUnlock()
	return agg
}
