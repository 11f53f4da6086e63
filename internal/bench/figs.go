package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"objinline/internal/analysis"
	"objinline/internal/core"
	"objinline/internal/pipeline"
)

// Fig14Row is one benchmark's inlinable-field counts (paper Figure 14).
type Fig14Row struct {
	Program   string
	Total     int // fields (and array sites) that hold objects
	Ideal     int // hand-determined upper bound under aliasing constraints
	Declared  int // what C++ lets a programmer declare inline
	Automatic int // what the optimizer inlined
	Rejected  map[string]string
}

// Fig14 computes the inlinable-field counts for every benchmark.
func (e *Engine) Fig14(scale Scale) ([]Fig14Row, error) {
	return Collect(len(Programs), func(i int) (Fig14Row, error) {
		p := Programs[i]
		c, err := e.Compile(p, VariantAuto, scale, pipeline.Config{Mode: pipeline.ModeInline})
		if err != nil {
			return Fig14Row{}, err
		}
		d := c.Optimize.Decision
		rej := make(map[string]string)
		for k, why := range d.Rejected {
			rej[k.String()] = why.String()
		}
		return Fig14Row{
			Program:   p.Name,
			Total:     len(d.ObjectFields),
			Ideal:     p.IdealFields,
			Declared:  p.DeclaredCxx,
			Automatic: len(d.Inlined),
			Rejected:  rej,
		}, nil
	})
}

// Fig15Row is one benchmark's generated-code sizes (paper Figure 15, in IR
// instructions rather than stripped object bytes — see DESIGN.md §2).
type Fig15Row struct {
	Program        string
	Direct         int // lowered program, no cloning
	Baseline       int // after type-directed cloning
	Inline         int // after cloning + object inlining
	BaselineClones int
	InlineClones   int
}

// Fig15 measures post-optimization code size.
func (e *Engine) Fig15(scale Scale) ([]Fig15Row, error) {
	modes := []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeBaseline, pipeline.ModeInline}
	// One task per (program, mode) so every compilation can run on its
	// own worker.
	cs, err := Collect(len(Programs)*len(modes), func(i int) (*pipeline.Compiled, error) {
		p, mode := Programs[i/len(modes)], modes[i%len(modes)]
		return e.Compile(p, VariantAuto, scale, pipeline.Config{Mode: mode})
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig15Row
	for i, p := range Programs {
		direct, base, inl := cs[i*3], cs[i*3+1], cs[i*3+2]
		rows = append(rows, Fig15Row{
			Program:        p.Name,
			Direct:         direct.CodeSize(),
			Baseline:       base.CodeSize(),
			Inline:         inl.CodeSize(),
			BaselineClones: base.Optimize.CloneStats.ClonesAdded,
			InlineClones:   inl.Optimize.CloneStats.ClonesAdded,
		})
	}
	return rows, nil
}

// Fig16Row is one benchmark's analysis-sensitivity cost (paper Figure 16:
// method contours required per method).
type Fig16Row struct {
	Program          string
	BaselineContours float64
	InlineContours   float64
	BaselinePasses   int
	InlinePasses     int
}

// Fig16 measures contours/method with and without the inlining analyses.
func (e *Engine) Fig16(scale Scale) ([]Fig16Row, error) {
	modes := []pipeline.Mode{pipeline.ModeBaseline, pipeline.ModeInline}
	cs, err := Collect(len(Programs)*len(modes), func(i int) (*pipeline.Compiled, error) {
		p, mode := Programs[i/len(modes)], modes[i%len(modes)]
		return e.Compile(p, VariantAuto, scale, pipeline.Config{Mode: mode})
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig16Row
	for i, p := range Programs {
		b, in := cs[i*2].Analysis.Stats(), cs[i*2+1].Analysis.Stats()
		rows = append(rows, Fig16Row{
			Program:          p.Name,
			BaselineContours: b.ContoursPerMethod,
			InlineContours:   in.ContoursPerMethod,
			BaselinePasses:   b.Passes,
			InlinePasses:     in.Passes,
		})
	}
	return rows, nil
}

// Fig17Row is one benchmark's performance (paper Figure 17): modeled
// cycles normalized to the baseline (Concert without inlining), lower is
// better; the G++ analog runs the hand-inlined source on the baseline
// pipeline.
type Fig17Row struct {
	Program        string
	BaselineCycles int64
	InlineCycles   int64
	ManualCycles   int64 // 0 when no manual variant exists
	// Normalized (baseline = 1.0).
	InlineNorm float64
	ManualNorm float64
	Speedup    float64 // baseline / inline
	// Supporting dynamic counts.
	BaselineAllocs, InlineAllocs uint64
	BaselineDerefs, InlineDerefs uint64
	BaselineMisses, InlineMisses uint64
}

// Fig17 measures performance for every benchmark at the given scale.
func (e *Engine) Fig17(scale Scale) ([]Fig17Row, error) {
	// Three potential executions per program: baseline, inline, manual.
	ms, err := Collect(len(Programs)*3, func(i int) (*Measurement, error) {
		p := Programs[i/3]
		switch i % 3 {
		case 0:
			return e.Measure(p, VariantAuto, scale, pipeline.Config{Mode: pipeline.ModeBaseline})
		case 1:
			return e.Measure(p, VariantAuto, scale, pipeline.Config{Mode: pipeline.ModeInline})
		default:
			if p.ManualFile == "" {
				return nil, nil
			}
			return e.Measure(p, VariantManual, scale, pipeline.Config{Mode: pipeline.ModeBaseline})
		}
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig17Row
	for i, p := range Programs {
		base, inl, man := ms[i*3], ms[i*3+1], ms[i*3+2]
		row := Fig17Row{
			Program:        p.Name,
			BaselineCycles: base.Counters.Cycles,
			InlineCycles:   inl.Counters.Cycles,
			BaselineAllocs: base.Counters.ObjectsAllocated + base.Counters.ArraysAllocated,
			InlineAllocs:   inl.Counters.ObjectsAllocated + inl.Counters.ArraysAllocated,
			BaselineDerefs: base.Counters.Dereferences,
			InlineDerefs:   inl.Counters.Dereferences,
			BaselineMisses: base.Counters.CacheMisses,
			InlineMisses:   inl.Counters.CacheMisses,
		}
		if man != nil {
			row.ManualCycles = man.Counters.Cycles
			row.ManualNorm = float64(man.Counters.Cycles) / float64(row.BaselineCycles)
		}
		row.InlineNorm = float64(row.InlineCycles) / float64(row.BaselineCycles)
		row.Speedup = float64(row.BaselineCycles) / float64(row.InlineCycles)
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationLayoutRow compares inlined-array layouts on OOPACK (ablation A1,
// the paper's §6.3 parallel-array observation).
type AblationLayoutRow struct {
	Layout      string
	Cycles      int64
	CacheMisses uint64
}

// AblationLayout runs OOPACK under both array layouts.
func (e *Engine) AblationLayout(scale Scale) ([]AblationLayoutRow, error) {
	p, err := ByName("oopack")
	if err != nil {
		return nil, err
	}
	layouts := []core.Layout{core.LayoutObjectOrder, core.LayoutParallel}
	return Collect(len(layouts), func(i int) (AblationLayoutRow, error) {
		m, err := e.Measure(p, VariantAuto, scale, pipeline.Config{
			Mode:        pipeline.ModeInline,
			ArrayLayout: layouts[i],
		})
		if err != nil {
			return AblationLayoutRow{}, err
		}
		return AblationLayoutRow{
			Layout:      layouts[i].String(),
			Cycles:      m.Counters.Cycles,
			CacheMisses: m.Counters.CacheMisses,
		}, nil
	})
}

// AblationTagDepthRow reports inlining decisions at different tag-depth
// caps (ablation A3).
type AblationTagDepthRow struct {
	Program string
	Depth   int
	Inlined int
}

// AblationTagDepth sweeps the tag-depth cap.
func (e *Engine) AblationTagDepth(scale Scale) ([]AblationTagDepthRow, error) {
	const maxDepth = 4
	return Collect(len(Programs)*maxDepth, func(i int) (AblationTagDepthRow, error) {
		p, depth := Programs[i/maxDepth], i%maxDepth+1
		c, err := e.Compile(p, VariantAuto, scale, pipeline.Config{
			Mode:     pipeline.ModeInline,
			Analysis: analysis.Options{TagDepth: depth},
		})
		if err != nil {
			return AblationTagDepthRow{}, fmt.Errorf("%s depth %d: %w", p.Name, depth, err)
		}
		return AblationTagDepthRow{
			Program: p.Name,
			Depth:   depth,
			Inlined: len(c.Optimize.Decision.Inlined),
		}, nil
	})
}

// PrintFig14 renders the Figure 14 table.
func PrintFig14(w io.Writer, rows []Fig14Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 14: Inlinable Field Counts")
	fmt.Fprintln(tw, "benchmark\ttotal object fields\tideally inlinable\tdeclared inline in C++\tautomatically inlined")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", r.Program, r.Total, r.Ideal, r.Declared, r.Automatic)
	}
	tw.Flush()
}

// PrintFig15 renders the Figure 15 table.
func PrintFig15(w io.Writer, rows []Fig15Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 15: Generated Code Size (IR instructions)")
	fmt.Fprintln(tw, "benchmark\tdirect\twithout inlining\twith inlining\tclones (base)\tclones (inline)\tinline/base")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
			r.Program, r.Direct, r.Baseline, r.Inline, r.BaselineClones, r.InlineClones,
			float64(r.Inline)/float64(r.Baseline))
	}
	tw.Flush()
}

// PrintFig16 renders the Figure 16 table.
func PrintFig16(w io.Writer, rows []Fig16Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 16: Method Contours Required (contours per method)")
	fmt.Fprintln(tw, "benchmark\twithout inlining\twith inlining\tpasses (base)\tpasses (inline)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\t%d\n",
			r.Program, r.BaselineContours, r.InlineContours, r.BaselinePasses, r.InlinePasses)
	}
	tw.Flush()
}

// PrintFig17 renders the Figure 17 table.
func PrintFig17(w io.Writer, rows []Fig17Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 17: Object Inlining Performance (modeled cycles, normalized to Concert without inlining)")
	fmt.Fprintln(tw, "benchmark\twithout inlining\twith inlining\tmanual (G++ analog)\tspeedup")
	for _, r := range rows {
		manual := "-"
		if r.ManualCycles > 0 {
			manual = fmt.Sprintf("%.2f", r.ManualNorm)
		}
		fmt.Fprintf(tw, "%s\t1.00\t%.2f\t%s\t%.2fx\n", r.Program, r.InlineNorm, manual, r.Speedup)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nsupporting dynamic counts:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tallocs base\tallocs inline\tderefs base\tderefs inline\tmisses base\tmisses inline")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Program, r.BaselineAllocs, r.InlineAllocs,
			r.BaselineDerefs, r.InlineDerefs, r.BaselineMisses, r.InlineMisses)
	}
	tw.Flush()
}
