package core

import (
	"errors"
	"fmt"

	"objinline/internal/analysis"
	"objinline/internal/clone"
	"objinline/internal/ir"
)

// Options configures the optimizer.
type Options struct {
	// Inline enables object inlining. With Inline false the optimizer
	// still runs type-directed cloning — devirtualization and field-slot
	// binding — which is the paper's "Concert without inlining" baseline.
	Inline bool
	// ArrayLayout selects the inlined-array layout (object-order by
	// default; parallel reproduces the paper's OOPACK observation).
	ArrayLayout Layout
}

// Result is the optimizer's output.
type Result struct {
	Prog     *ir.Program // the specialized program
	Decision *Decision
	Analysis *analysis.Result

	// Metrics for the evaluation harness.
	CloneStats    clone.Stats
	ClassVersions int
	StackSites    int
	Attempts      int

	// StackProvenance lists every stack-elided allocation site with the
	// inlined fields that consume its objects. The payoff attribution
	// joins this against runtime allocation-site profiles to credit
	// eliminated allocations to individual fields.
	StackProvenance []StackSite
}

// StackSite is one stack-elided allocation site in the source program.
type StackSite struct {
	// Pos is the allocation instruction's source position ("file:line:col").
	Pos string `json:"pos"`
	// Class is the allocated class's source-level name.
	Class string `json:"class"`
	// Fields are the inlined-field keys ("Class.field" or array-site
	// strings) whose copies consume this site's objects, sorted.
	Fields []string `json:"fields"`
}

// Optimize runs the full pipeline of the paper's §5 over an analyzed
// program: decide inlinability, build restructured class versions, clone
// methods per compatible contour group, and rewrite every use and
// assignment of the inlined fields. The loop retries with a smaller
// candidate set (or finer class versions) when a rewrite turns out to be
// unrealizable — the moral equivalent of the paper's demand-driven
// iteration between analysis, cloning, and transformation.
func Optimize(prog *ir.Program, res *analysis.Result, opts Options) (*Result, error) {
	out, _, err := optimize(prog, res, opts)
	return out, err
}

// optimize is Optimize, also returning the transformer of the attempt
// that succeeded (its plans and tag memo are what tests inspect).
func optimize(prog *ir.Program, res *analysis.Result, opts Options) (*Result, *transformer, error) {
	val := newValuability(prog, res)
	var d *Decision
	if opts.Inline {
		d = decide(prog, res, val)
	} else {
		d = newDecision()
		d.ObjectFields = append(res.ObjectFields(), res.ObjectArraySites()...)
	}

	subver := make(map[*analysis.ObjContour]int)
	nextSub := 1
	const maxAttempts = 64
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		vs := newVersionSpace(res, d, opts.ArrayLayout)
		vs.subver = subver
		if !vs.build() {
			changed := false
			for k, conflict := range vs.conflicts {
				if d.Inlined[k] {
					d.reject(k, because(ReasonLayoutConflict, conflict,
						Step{What: "layout-conflict", Where: k.String(), Detail: conflict}))
					changed = true
				}
			}
			if !changed {
				return nil, nil, fmt.Errorf("core: version conflicts did not involve candidates: %v", vs.conflicts)
			}
			pruneInconsistent(prog, res, d)
			continue
		}
		tr := newTransformer(prog, res, d, vs, val, opts)
		m, err := tr.materialize()
		if err != nil {
			return nil, nil, err
		}
		switch {
		case m.prog != nil:
			return &Result{
				Prog:            m.prog,
				Decision:        d,
				Analysis:        res,
				CloneStats:      m.grouping.Stats(),
				ClassVersions:   len(vs.Versions()),
				StackSites:      len(tr.stackable),
				Attempts:        attempt,
				StackProvenance: tr.stackProvenance(),
			}, tr, nil
		case len(m.rejects) > 0:
			changed := false
			for k, reason := range m.rejects {
				if d.Inlined[k] {
					d.reject(k, reason)
					changed = true
				}
			}
			if !changed {
				return nil, nil, fmt.Errorf("core: rewrite rejected non-candidates: %v", m.rejects)
			}
			pruneInconsistent(prog, res, d)
		case len(m.splitOCs) > 0:
			for _, oc := range m.splitOCs {
				if subver[oc] == 0 {
					subver[oc] = nextSub
					nextSub++
				}
			}
		default:
			return nil, nil, errors.New("core: materialization made no progress")
		}
	}
	return nil, nil, errors.New("core: transformation did not converge")
}
