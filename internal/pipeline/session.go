package pipeline

import (
	"context"
	"errors"
	"fmt"

	"objinline/internal/analysis"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
	"objinline/internal/trace"
)

// A Session is a pinned compilation that absorbs source edits
// incrementally. It retains the lowered program and the lowerer's name
// tables (a lower.Snapshot) plus the last Compiled, and classifies each
// edit into one of five tiers, cheapest first:
//
//	reuse — the source is byte-identical; return the prior Compiled.
//	patch — every changed function re-lowered to the same IR shape at
//	        the same source positions (only constant values and string
//	        literals moved). Neither the contour analysis nor any
//	        back-end decision reads those payload fields — the analysis
//	        dispatches on Aux only as an operator code, the optimizer's
//	        clone-grouping signatures group only same-method clones
//	        (whose payloads are identical by construction), and every
//	        position string baked into rejection evidence or stack-site
//	        provenance is unchanged. So the entire prior Compiled —
//	        analysis and optimized program — is reused wholesale; the
//	        new constant payloads are forwarded into the optimized
//	        output through clone-provenance links (ir.Instr.Origin).
//	        Cost: one function re-lower plus a pointer walk.
//	reopt — same shape, but source positions shifted (say, an added
//	        comment line). The analysis Result is still exact and is
//	        reused, but the optimize/funcinline/peephole back end
//	        re-runs so the position strings it bakes into reports and
//	        traps match a cold compile. Analysis work is zero
//	        instruction evaluations.
//	solve — some function's IR shape changed within an unchanged
//	        program structure. Changed bodies are spliced in place and
//	        the whole-program fixpoint re-runs from scratch. This is
//	        deliberate conservatism: the multi-pass policy ladder
//	        (splitting decisions carried between passes) is globally
//	        coupled, so partial warm-starts cannot guarantee the
//	        byte-identical-to-cold contract this engine is pinned to.
//	cold  — a structural edit (classes, fields, globals, function set
//	        or signatures) perturbs contour keys and function IDs;
//	        re-lower the already-checked source and rebuild everything
//	        after the front end, including the snapshot.
//
// Every tier produces output byte-identical to a cold compile of the
// same source — the differential fuzz tests in this package pin that.
//
// A Session is not safe for concurrent use; callers serialize Patch.
// Patch invalidates previously returned Compiled values (the retained
// IR they share is updated in place); the returned *Compiled is valid
// until the next Patch.
type Session struct {
	File string
	Cfg  Config

	source   string
	snap     *lower.Snapshot
	compiled *Compiled
	// stale is set when a back-end phase failed (typically a deadline)
	// *after* the snapshot IR absorbed an edit: the pinned Compiled no
	// longer matches the IR, so the next patch must rebuild cold.
	stale bool
}

// Tier labels for IncrementalStats.Tier.
const (
	TierReuse = "reuse"
	TierPatch = "patch"
	TierReopt = "reopt"
	TierSolve = "solve"
	TierCold  = "cold"
)

// IncrementalStats reports how a Patch was absorbed.
type IncrementalStats struct {
	// Tier is the cheapest tier that could absorb the edit: "reuse",
	// "patch", "reopt", "solve", or "cold".
	Tier string `json:"tier"`
	// PatchStats is the lowering's account of the edit: the re-lowered
	// functions and the reused, patched and respliced counts. Changed is
	// empty on reuse and cold tiers; a respliced function (shape change)
	// forces the solve tier.
	lower.PatchStats
	// AnalysisReused is true when the prior analysis result was carried
	// over verbatim (reuse, patch, and reopt tiers in analyzing modes).
	AnalysisReused bool `json:"analysis_reused"`
	// AnalysisInstrEvals is the number of instruction transfer-function
	// applications this patch's analysis performed: 0 whenever
	// AnalysisReused, the full fixpoint cost otherwise.
	AnalysisInstrEvals int `json:"analysis_instr_evals"`
}

// NewSession cold-compiles src and pins the state needed for incremental
// patches.
func NewSession(file, src string, cfg Config) (*Session, *Compiled, error) {
	return NewSessionContext(context.Background(), file, src, cfg)
}

// NewSessionContext is NewSession with cancellation (see CompileContext).
func NewSessionContext(ctx context.Context, file, src string, cfg Config) (*Session, *Compiled, error) {
	s := &Session{File: file, Cfg: cfg}
	c, _, err := s.rebuild(ctx, src, nil)
	if err != nil {
		return nil, nil, err
	}
	return s, c, nil
}

// Compiled returns the session's current compilation.
func (s *Session) Compiled() *Compiled { return s.compiled }

// Source returns the session's current source text.
func (s *Session) Source() string { return s.source }

// Patch absorbs an edited full source text. See PatchContext.
func (s *Session) Patch(src string) (*Compiled, IncrementalStats, error) {
	return s.PatchContext(context.Background(), src)
}

// PatchContext recompiles the session at the new source, reusing as much
// prior work as the edit allows. On error (parse, check, lowering, or a
// canceled context) the session keeps its previous Compiled; a
// cancellation after the edit was lowered makes the next patch rebuild
// cold. The returned stats say which tier absorbed the edit.
func (s *Session) PatchContext(ctx context.Context, src string) (*Compiled, IncrementalStats, error) {
	var st IncrementalStats
	if s.stale {
		return s.rebuild(ctx, src, nil)
	}
	if src == s.source {
		st.Tier = TierReuse
		st.Reused = len(s.snap.Program().Funcs)
		st.AnalysisReused = s.compiled.Analysis != nil
		return s.compiled, st, nil
	}
	info, err := frontEnd(ctx, s.File, src, s.Cfg.Trace)
	if err != nil {
		return nil, st, err
	}

	sp := s.Cfg.Trace.Start(trace.PhaseLower)
	ps, err := s.snap.Patch(info)
	sp.End()
	if errors.Is(err, lower.ErrStructural) {
		// The edit already parsed and checked; only lowering starts over.
		return s.rebuild(ctx, src, info)
	}
	if err != nil {
		return nil, st, fmt.Errorf("lower: %w", err)
	}
	if err := canceled(ctx); err != nil {
		// snap.Patch already rewrote the snapshot IR in place, so the
		// pinned Compiled no longer matches it: rebuild cold next time.
		s.stale = true
		return nil, st, err
	}

	st.PatchStats = ps

	// Tier by lowering outcome (see the type comment for the soundness
	// argument behind each reuse level).
	if !ps.ShapeChanged() && !ps.PosShifted {
		// patch: the prior Compiled is exact except for constant payload
		// values, which the snapshot now holds and the optimized output's
		// clones inherit through their Origin links. The snapshot program
		// itself (Compiled.Source, and Compiled.Prog in direct mode) was
		// already payload-patched in place by snap.Patch.
		st.Tier = TierPatch
		st.AnalysisReused = s.compiled.Analysis != nil
		s.compiled.Prog.RefreshConstPayloads()
		s.source = src
		return s.compiled, st, nil
	}
	var prior *analysis.Result
	if ps.ShapeChanged() {
		st.Tier = TierSolve
	} else {
		st.Tier = TierReopt
		st.AnalysisReused = s.compiled.Analysis != nil
		prior = s.compiled.Analysis
	}

	c, err := compileLowered(ctx, s.snap.Program(), prior, s.Cfg)
	if err != nil {
		// The snapshot IR already absorbed the edit but the pinned
		// Compiled did not; force the next patch to rebuild cold.
		s.stale = true
		return nil, st, err
	}
	if c.Analysis != nil && !st.AnalysisReused {
		st.AnalysisInstrEvals = c.Analysis.Stats().Work.InstrEvals
	}
	s.source = src
	s.compiled = c
	return c, st, nil
}

// rebuild is the cold tier: full parse → check → lower → analyze →
// optimize, replacing the snapshot. A caller that already checked src
// passes its info, and the parse and check are skipped.
func (s *Session) rebuild(ctx context.Context, src string, info *sem.Info) (*Compiled, IncrementalStats, error) {
	st := IncrementalStats{Tier: TierCold}
	if info == nil {
		var err error
		if info, err = frontEnd(ctx, s.File, src, s.Cfg.Trace); err != nil {
			return nil, st, err
		}
	}
	sp := s.Cfg.Trace.Start(trace.PhaseLower)
	snap, err := lower.NewSnapshot(info)
	if err != nil {
		sp.End()
		return nil, st, fmt.Errorf("lower: %w", err)
	}
	sp.Counter("instrs", int64(snap.Program().CodeSize()))
	sp.End()
	c, err := compileLowered(ctx, snap.Program(), nil, s.Cfg)
	if err != nil {
		return nil, st, err
	}
	if c.Analysis != nil {
		st.AnalysisInstrEvals = c.Analysis.Stats().Work.InstrEvals
	}
	s.source = src
	s.snap = snap
	s.compiled = c
	s.stale = false
	return c, st, nil
}
