package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerMedian returns the middle value of xs, the lower of the two middle
// values for an even count, so it is always one of xs; 0 for none.
func lowerMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the highest percentile of xs with at least tailSamples
// samples beyond it: the (tailSamples+1)-th largest value, and the
// percentile it sits at. With too few samples it returns the smallest
// value and ok=false.
func tail(xs []float64) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailSamples
	if i < 0 {
		return s[0], 0, false
	}
	return s[i], 100 * float64(i+1) / float64(len(s)), true
}

// geomean is the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no values")
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geometric mean of non-positive value %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// samples collects per-operation timings grouped by configuration
// (program×mode, program×tier, or request class), in first-seen order.
type samples struct {
	order []string
	by    map[string][]float64
	all   []float64
}

func newSamples() *samples { return &samples{by: map[string][]float64{}} }

func (s *samples) add(config string, ms float64) {
	if _, ok := s.by[config]; !ok {
		s.order = append(s.order, config)
	}
	s.by[config] = append(s.by[config], ms)
	s.all = append(s.all, ms)
}

// medians returns each configuration's median, in first-seen order.
func (s *samples) medians() []float64 {
	out := make([]float64, 0, len(s.order))
	for _, c := range s.order {
		out = append(out, median(s.by[c]))
	}
	return out
}

// configMedian is the lower median over configurations of each
// configuration's median: the suite workloads' p50, which is always one
// configuration's own value rather than a point between two of them.
func (s *samples) configMedian() float64 { return lowerMedian(s.medians()) }

// slowest is the configuration with the highest median.
func (s *samples) slowest() string {
	var worst string
	var top float64
	for _, c := range s.order {
		if m := median(s.by[c]); worst == "" || m > top {
			worst, top = c, m
		}
	}
	return worst
}

// geomean is the geometric mean of the configuration medians.
func (s *samples) geomean() (float64, error) { return s.geomeanOf(func(string) bool { return true }) }

// geomeanOf is the geometric mean of the medians of the configurations
// keep accepts.
func (s *samples) geomeanOf(keep func(config string) bool) (float64, error) {
	var ms []float64
	for _, c := range s.order {
		if keep(c) {
			ms = append(ms, median(s.by[c]))
		}
	}
	return geomean(ms)
}

// rowNotes lists each configuration's median and sample count, one row
// per configuration, in first-seen order.
func (s *samples) rowNotes(r *report) {
	for _, c := range s.order {
		r.notes = append(r.notes, fmt.Sprintf("%-24s p50 %10.4f ms  n=%d", c, median(s.by[c]), len(s.by[c])))
	}
}

// tailNote fills tail_ms and describes it. The tail is taken within the
// slowest configuration, so it never falls between two configurations
// whatever the number of passes.
func (s *samples) tailNote(r *report) {
	c := s.slowest()
	xs := s.by[c]
	v, pct, ok := tail(xs)
	r.e2e["tail_ms"] = v
	if !ok {
		r.notes = append(r.notes, fmt.Sprintf("tail_ms: %s has only %d samples, too few for %d beyond any percentile; reporting its minimum", c, len(xs), tailSamples))
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("tail_ms = p%.2f of %s over its %d samples (%d beyond it)", pct, c, len(xs), tailSamples))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocMeter sums the Go heap allocated inside the calls it brackets.
// Each reading is exact, because runtime.ReadMemStats flushes every P's
// allocation cache; the flush also slows the allocations that follow, so
// the workloads bracket calls only in a pass that is not timed.
type allocMeter uint64

func (m *allocMeter) add(f func()) {
	a := heapAllocated()
	f()
	*m += allocMeter(heapAllocated() - a)
}

// mb is the metered bytes in MB.
func (m allocMeter) mb() float64 { return float64(m) / 1e6 }

// heapAllocated is the Go heap's cumulative allocated bytes.
func heapAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
