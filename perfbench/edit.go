package main

import (
	"fmt"
	"strings"
	"time"

	"objinline/internal/pipeline"
)

var editWorkload = &workload{
	name: "edit",
	setup: func(cfg *config, traced bool) (instance, error) {
		progs, err := suite(cfg.root, cfg.seed)
		if err != nil {
			return nil, err
		}
		e := &editInst{seed: cfg.seed, progs: progs}
		r := rng(cfg.seed, streamEdits)
		for _, p := range progs {
			script, err := editScript(r, p.src)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			sess, _, err := pipeline.NewSession(p.file, p.src, pipeline.Config{Mode: pipeline.ModeInline})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			e.scripts = append(e.scripts, script)
			e.sessions = append(e.sessions, sess)
		}
		return e, nil
	},
}

var tiers = []string{pipeline.TierReuse, pipeline.TierPatch, pipeline.TierReopt, pipeline.TierSolve, pipeline.TierCold}

type editInst struct {
	seed     uint64
	progs    []program
	scripts  [][]edit
	sessions []*pipeline.Session
}

func (*editInst) close() {}

// editStep identifies one edit of one program's script.
type editStep struct{ prog, step int }

func (e *editInst) measure(until time.Time, rec *recorder) (*report, error) {
	r := newReport()
	ops := newSamples()
	layers := newLayerAcc(rec)
	var passMs []float64
	first := map[editStep]string{} // IR text after each step, first pass
	tierOf := map[editStep]string{}
	var codeSize int64 // summed over the first pass's patched programs
	progOrder := make([]int, len(e.progs))
	for i := range progOrder {
		progOrder[i] = i
	}
	orders := rng(e.seed, streamPasses)
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		var passDur time.Duration
		counts := map[string]int64{}
		// Each program's script runs in order; the programs take turns in
		// a reshuffled order.
		for _, pi := range reshuffled(orders, progOrder) {
			p, sess := e.progs[pi], e.sessions[pi]
			for si, ed := range e.scripts[pi] {
				if err := r.calibrate(); err != nil {
					return nil, err
				}
				r.attempted++
				var op int64
				var sp int
				if rec != nil {
					op = rec.op()
					sp = rec.begin("session.patch", op, -1, 1)
				}
				t0 := time.Now()
				c, st, err := sess.Patch(ed.src)
				d := time.Since(t0)
				if rec != nil {
					rec.endAs(sp, "session."+st.Tier)
				}
				if err != nil {
					r.fail("%s edit %d (%s): %v", p.name, si, ed.kind, err)
					continue
				}
				passDur += d
				ops.add(p.name+"/"+st.Tier, ms(d))
				counts["tier/"+p.name+"/"+st.Tier]++
				counts["instr_evals/"+p.name] += int64(st.AnalysisInstrEvals)
				counts["code_size/"+p.name] += int64(c.CodeSize())
				layers.count("session."+st.Tier+"_count", 1)
				layers.count("session.instr_evals", int64(st.AnalysisInstrEvals))
				text := c.Prog.String()
				k := editStep{pi, si}
				if pass == 0 {
					first[k], tierOf[k] = text, st.Tier
					codeSize += int64(c.CodeSize())
				} else if text != first[k] {
					r.fail("%s edit %d: pass %d IR differs from pass 0", p.name, si, pass)
				}
			}
		}
		if err := r.guardPass(pass, counts); err != nil {
			return nil, err
		}
		passMs = append(passMs, ms(passDur))
		layers.endPass()
	}
	passes := len(passMs)
	// alloc_mb comes from one more pass, not timed, that reads the heap
	// around each Patch only, leaving out the checks' IR text. Like every
	// pass, it ends on the base source.
	var alloc allocMeter
	var allocEdits int
	for pi, p := range e.progs {
		sess := e.sessions[pi]
		for si, ed := range e.scripts[pi] {
			r.attempted++
			allocEdits++
			var err error
			alloc.add(func() { _, _, err = sess.Patch(ed.src) })
			if err != nil {
				r.fail("%s edit %d (%s): %v", p.name, si, ed.kind, err)
			}
		}
	}
	r.e2e["alloc_mb"] = alloc.mb() / float64(allocEdits)
	r.e2e["suite_ms"] = median(passMs)
	r.e2e["p50_ms"] = ops.configMedian()
	// The reuse tier is left out of the geometric mean: an identical
	// re-submission is a byte comparison of well under a microsecond, so
	// its median moves several-fold with cache state, and with 5 of 25
	// configurations that would swing the mean. session.reuse_ms still
	// reports it.
	gm, err := ops.geomeanOf(func(c string) bool { return !strings.HasSuffix(c, "/"+pipeline.TierReuse) })
	if err != nil {
		return nil, err
	}
	r.e2e["geomean_ms"] = gm
	ops.tailNote(r)
	ops.rowNotes(r)
	var total float64
	for _, d := range passMs {
		total += d
	}
	r.e2e["ops_per_s"] = float64(len(ops.all)) / (total / 1000)
	r.e2e["code_size"] = float64(codeSize)
	r.notes = append(r.notes, fmt.Sprintf("%d passes of %d edits", passes, len(ops.all)/passes))

	// Every patched program must equal a cold compile of the same edited
	// source; the cold compile's time is the base of each tier's _vs_cold.
	coldMs := map[string]float64{}
	for pi, p := range e.progs {
		for si, ed := range e.scripts[pi] {
			k := editStep{pi, si}
			text, ok := first[k]
			if !ok {
				continue // the patch itself failed
			}
			r.attempted++
			var sp int
			if rec != nil {
				sp = rec.begin("cold", rec.op(), -1, 2)
			}
			t0 := time.Now()
			c, err := pipeline.Compile(p.file, ed.src, pipeline.Config{Mode: pipeline.ModeInline})
			coldMs[tierOf[k]] += ms(time.Since(t0))
			if rec != nil {
				rec.end(sp)
			}
			if err != nil {
				r.fail("%s edit %d cold: %v", p.name, si, err)
				continue
			}
			if c.Prog.String() != text {
				r.fail("%s edit %d (%s, %s tier): patched IR differs from a cold compile", p.name, si, ed.kind, tierOf[k])
			}
		}
	}

	// Run the programs as the sessions leave them (each pass ends on the
	// base source) against cold direct and baseline builds.
	builds := map[compileConfig]*pipeline.Compiled{}
	for pi, p := range e.progs {
		for _, m := range modes[:2] {
			c, err := pipeline.Compile(p.file, p.src, pipeline.Config{Mode: m})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.name, m, err)
			}
			builds[compileConfig{pi, m}] = c
		}
		builds[compileConfig{pi, pipeline.ModeInline}] = e.sessions[pi].Compiled()
	}
	if err := verifyRuns(r, e.progs, builds); err != nil {
		return nil, err
	}

	if rec != nil {
		m := zeroLayers()
		for _, t := range tiers {
			m["session."+t+"_count"] = layers.n("session." + t + "_count")
			m["session."+t+"_ms"] = layers.ms("session." + t)
			// Per pass, the tier's time over cold compiles of the same
			// sources (coldMs covers one pass).
			m["session."+t+"_vs_cold"] = ratio(m["session."+t+"_ms"], coldMs[t])
		}
		m["session.instr_evals"] = layers.n("session.instr_evals")
		r.layers = m
		if err := layers.guard(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}
