package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

// AblationCostRow reports each benchmark's speedup under one cost-model
// variant (ablation A2): because this reproduction substitutes a cost
// model for the paper's SparcStation, the conclusions should be robust to
// the model's constants — inlining must keep winning as the memory system
// gets cheaper or dearer.
type AblationCostRow struct {
	Variant  string
	Program  string
	Speedup  float64 // baseline cycles / inline cycles
	Baseline int64
	Inline   int64
}

// costVariant is one perturbed cost model.
type costVariant struct {
	name string
	mut  func(*vm.CostModel)
}

func costVariants() []costVariant {
	return []costVariant{
		{"default", func(c *vm.CostModel) {}},
		{"cheap-memory (miss 12)", func(c *vm.CostModel) { c[vm.DimCacheMiss] = 12 }},
		{"dear-memory (miss 80)", func(c *vm.CostModel) { c[vm.DimCacheMiss] = 80 }},
		{"cheap-alloc (base 20)", func(c *vm.CostModel) { c[vm.DimAllocBase] = 20 }},
		{"dear-alloc (base 120)", func(c *vm.CostModel) { c[vm.DimAllocBase] = 120 }},
		{"dear-dispatch (24)", func(c *vm.CostModel) { c[vm.DimDispatch] = 24 }},
	}
}

// AblationCostModel measures every benchmark's speedup under each cost
// variant. A cost model only reweights the charge events of an execution
// — it never changes which events occur — so each (program, mode) pair is
// executed once under the default model and every variant's cycle total
// is an exact replay of the recorded event vector (vm.CostDim), turning
// 6×5×2 executions into 5×2 plus arithmetic.
func (e *Engine) AblationCostModel(scale Scale) ([]AblationCostRow, error) {
	modes := []pipeline.Mode{pipeline.ModeBaseline, pipeline.ModeInline}
	ms, err := Collect(len(Programs)*len(modes), func(i int) (*Measurement, error) {
		p, mode := Programs[i/len(modes)], modes[i%len(modes)]
		return e.Measure(p, VariantAuto, scale, pipeline.Config{Mode: mode})
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationCostRow
	for _, v := range costVariants() {
		cost := vm.DefaultCostModel
		v.mut(&cost)
		for i, p := range Programs {
			base := ms[i*2].CyclesUnder(&cost)
			inl := ms[i*2+1].CyclesUnder(&cost)
			rows = append(rows, AblationCostRow{
				Variant: v.name, Program: p.Name,
				Speedup: float64(base) / float64(inl), Baseline: base, Inline: inl,
			})
		}
	}
	return rows, nil
}

// PrintAblationCost renders the A2 table grouped by variant.
func PrintAblationCost(w io.Writer, rows []AblationCostRow) {
	fmt.Fprintln(w, "Ablation A2: cost-model sensitivity (speedup = baseline/inline cycles)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := []string{"variant"}
	for _, p := range Programs {
		header = append(header, p.Name)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, v := range costVariants() {
		line := []string{v.name}
		for _, p := range Programs {
			for _, r := range rows {
				if r.Variant == v.name && r.Program == p.Name {
					line = append(line, fmt.Sprintf("%.2fx", r.Speedup))
				}
			}
		}
		fmt.Fprintln(tw, strings.Join(line, "\t"))
	}
	tw.Flush()
}
