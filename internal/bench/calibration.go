package bench

// The calibration figure cross-validates the VM's deterministic cost
// model against the native execution tier: for every benchmark it takes
// the model's predicted effect of object inlining (cycle and allocation
// deltas, baseline vs inline) and the hardware's measured effect (wall
// time and Go allocator deltas from the emitted binaries) and reports
// the two side by side as ratios. The model's absolute cycle counts are
// not expected to match nanoseconds — it simulates a 1990s memory
// hierarchy — but its *ordering* of programs by inlining benefit should
// survive contact with real silicon; any pair it misorders is flagged
// loudly. See EXPERIMENTS.md for methodology and caveats.

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"objinline/internal/pipeline"
)

// CalibrationRow is one benchmark's predicted-vs-measured comparison.
// "Predicted" values come from the VM cost model; "native" values are
// per-repetition averages measured on emitted binaries.
type CalibrationRow struct {
	Program string

	// Predicted by the cost model (modeled cycles; VM object+array
	// allocation counts).
	PredictedBaseCycles   int64
	PredictedInlineCycles int64
	PredictedSpeedup      float64
	PredictedBaseAllocs   uint64
	PredictedInlineAllocs uint64

	// Measured on the native tier.
	Reps                int
	NativeBaseNanos     int64
	NativeInlineNanos   int64
	MeasuredSpeedup     float64
	NativeBaseMallocs   uint64
	NativeInlineMallocs uint64

	// Cross-validation: measured / predicted for the speedup, and the
	// allocation deltas (baseline − inline) with their ratio. A
	// MeasuredAllocDelta below PredictedAllocDelta is expected when Go's
	// escape analysis already kept some of the eliminated temporaries off
	// the heap — the ratios are reported as observed, not reconciled.
	SpeedupRatio        float64
	PredictedAllocDelta int64
	MeasuredAllocDelta  int64
	AllocDeltaRatio     float64
}

// Calibration is the figure: per-program rows plus the pairwise-ordering
// verdict.
type Calibration struct {
	Rows []CalibrationRow
	// Misordered lists program pairs whose ranking by inlining speedup
	// differs between the cost model and the hardware. Empty means the
	// model's ordering survived.
	Misordered []string
}

// calibrationReps scales repetition counts so small workloads still
// produce wall times well above timer noise while the default scale does
// not run for minutes.
func calibrationReps(s Scale) int {
	switch s {
	case ScaleSmall:
		return 50
	case ScaleMedium:
		return 10
	default:
		return 3
	}
}

// MeasureNative returns the memoized native execution of one
// configuration: the emitted binary's wall time and allocator deltas
// over reps repetitions. The build-and-run holds a worker slot like any
// other execution. Entries are keyed by configuration only, so callers
// mixing repetition counts for the same configuration share the first
// request's measurement — the calibration figure uses one reps value per
// scale, which keeps the cache coherent.
func (e *Engine) MeasureNative(p Program, v Variant, s Scale, cfg pipeline.Config, reps int) (*pipeline.NativeRun, error) {
	return execute(e, e.nativeRuns, p, v, s, cfg, func(c *pipeline.Compiled) (*pipeline.NativeRun, error) {
		res, err := c.Execute(context.Background(), pipeline.ExecOptions{
			Engine: pipeline.EngineNative,
			Reps:   reps,
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s/%s native: %w", p.Name, v, cfg.Mode, s, err)
		}
		return res.Native, nil
	})
}

// Calibration computes the figure: four executions per benchmark (VM and
// native, baseline and inline), joined into predicted-vs-measured rows.
func (e *Engine) Calibration(scale Scale) (*Calibration, error) {
	reps := calibrationReps(scale)
	cfgs := [2]pipeline.Config{{Mode: pipeline.ModeBaseline}, {Mode: pipeline.ModeInline}}
	vms, err := Collect(len(Programs)*2, func(i int) (*Measurement, error) {
		return e.Measure(Programs[i/2], VariantAuto, scale, cfgs[i%2])
	})
	if err != nil {
		return nil, err
	}
	// The native runs go one at a time, after the VM runs: a binary's
	// timed run must not share the CPUs with another build or run.
	natives := make([]*pipeline.NativeRun, len(Programs)*2)
	for i := range natives {
		if natives[i], err = e.MeasureNative(Programs[i/2], VariantAuto, scale, cfgs[i%2], reps); err != nil {
			return nil, err
		}
	}

	cal := &Calibration{}
	for i, p := range Programs {
		vmBase, vmInl := vms[i*2], vms[i*2+1]
		natBase, natInl := natives[i*2], natives[i*2+1]
		row := CalibrationRow{
			Program:               p.Name,
			PredictedBaseCycles:   vmBase.Counters.Cycles,
			PredictedInlineCycles: vmInl.Counters.Cycles,
			PredictedBaseAllocs:   vmBase.Counters.ObjectsAllocated + vmBase.Counters.ArraysAllocated,
			PredictedInlineAllocs: vmInl.Counters.ObjectsAllocated + vmInl.Counters.ArraysAllocated,
			Reps:                  reps,
			NativeBaseNanos:       natBase.WallNanos / int64(reps),
			NativeInlineNanos:     natInl.WallNanos / int64(reps),
			NativeBaseMallocs:     natBase.Mallocs / uint64(reps),
			NativeInlineMallocs:   natInl.Mallocs / uint64(reps),
		}
		row.PredictedSpeedup = float64(row.PredictedBaseCycles) / float64(row.PredictedInlineCycles)
		row.MeasuredSpeedup = float64(row.NativeBaseNanos) / float64(row.NativeInlineNanos)
		row.SpeedupRatio = row.MeasuredSpeedup / row.PredictedSpeedup
		row.PredictedAllocDelta = int64(row.PredictedBaseAllocs) - int64(row.PredictedInlineAllocs)
		row.MeasuredAllocDelta = int64(row.NativeBaseMallocs) - int64(row.NativeInlineMallocs)
		if row.PredictedAllocDelta != 0 {
			row.AllocDeltaRatio = float64(row.MeasuredAllocDelta) / float64(row.PredictedAllocDelta)
		}
		cal.Rows = append(cal.Rows, row)
	}

	// The ordering check: every program pair the model ranks one way and
	// the hardware ranks the other. Quadratic over five programs.
	for i := range cal.Rows {
		for j := i + 1; j < len(cal.Rows); j++ {
			a, b := cal.Rows[i], cal.Rows[j]
			if (a.PredictedSpeedup-b.PredictedSpeedup)*(a.MeasuredSpeedup-b.MeasuredSpeedup) < 0 {
				cal.Misordered = append(cal.Misordered, fmt.Sprintf(
					"%s vs %s: model predicts %.2fx vs %.2fx, hardware measures %.2fx vs %.2fx",
					a.Program, b.Program,
					a.PredictedSpeedup, b.PredictedSpeedup,
					a.MeasuredSpeedup, b.MeasuredSpeedup))
			}
		}
	}
	return cal, nil
}

// PrintCalibration renders the calibration table with the ordering
// verdict underneath.
func PrintCalibration(w io.Writer, c *Calibration) {
	fmt.Fprintln(w, "Calibration: cost-model predictions vs native execution (inlining on vs off)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tpredicted speedup\tmeasured speedup\tratio\tΔallocs predicted\tΔmallocs measured\tratio\treps")
	for _, r := range c.Rows {
		fmt.Fprintf(tw, "%s\t%.2fx\t%.2fx\t%.2f\t%d\t%d\t%.2f\t%d\n",
			r.Program, r.PredictedSpeedup, r.MeasuredSpeedup, r.SpeedupRatio,
			r.PredictedAllocDelta, r.MeasuredAllocDelta, r.AllocDeltaRatio, r.Reps)
	}
	tw.Flush()
	if len(c.Misordered) == 0 {
		fmt.Fprintln(w, "\nordering: the model ranks every program pair by inlining benefit the same way the hardware does")
	} else {
		fmt.Fprintln(w, "\n!! CALIBRATION MISORDER: the cost model ranks these pairs differently from the hardware:")
		for _, m := range c.Misordered {
			fmt.Fprintln(w, "!!   "+m)
		}
	}
	fmt.Fprintln(w, "\nnote: measured Δmallocs can undershoot the prediction — Go's escape analysis may")
	fmt.Fprintln(w, "already stack-allocate temporaries the VM counts as heap objects; ratios are as observed.")
}
