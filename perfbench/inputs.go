package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"objinline/internal/bench"
	"objinline/internal/pipeline"
)

// Everything a workload feeds the program is generated here from the
// seed; the workloads see only these inputs. Each input kind draws from
// its own stream so that adding draws to one leaves the others unchanged.
const (
	streamSizes = iota + 1
	streamOrder
	streamEdits
	streamRequests
	streamPasses
)

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// sizeBand is the half-width of the band, as a share of the default, that
// the seed draws each size parameter from.
const sizeBand = 0.01

// program is one benchmark program instantiated at drawn sizes.
type program struct {
	name  string
	file  string // compile filename, e.g. "richards.icc"
	src   string
	sizes map[string]int
}

// compileConfig names one (program, mode) compilation.
type compileConfig struct {
	prog int
	mode pipeline.Mode
}

var modes = []pipeline.Mode{pipeline.ModeDirect, pipeline.ModeBaseline, pipeline.ModeInline}

// template reads a benchmark program's source with its $PARAM
// placeholders.
func template(root string, p bench.Program) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "internal", "bench", "progs", p.File))
	return string(b), err
}

// drawSizes draws each of p's size parameters uniformly from within
// sizeBand of its default-scale value.
func drawSizes(r *rand.Rand, p bench.Program) map[string]int {
	keys := make([]string, 0, len(p.Default))
	for k := range p.Default {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sizes := make(map[string]int, len(keys))
	for _, k := range keys {
		def, _ := strconv.Atoi(p.Default[k])
		v := int(math.Round(float64(def) * (1 + sizeBand*(2*r.Float64()-1))))
		sizes[k] = max(v, 1)
	}
	return sizes
}

// instantiate substitutes the size parameters into a template.
func instantiate(tmpl string, sizes map[string]int) (string, error) {
	keys := make([]string, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	// Longest first, so $N cannot clobber a longer key sharing its prefix.
	sort.Slice(keys, func(i, j int) bool { return len(keys[i]) > len(keys[j]) })
	for _, k := range keys {
		tmpl = strings.ReplaceAll(tmpl, k, strconv.Itoa(sizes[k]))
	}
	if i := strings.IndexByte(tmpl, '$'); i >= 0 {
		return "", fmt.Errorf("unsubstituted parameter near %q", tmpl[i:min(i+20, len(tmpl))])
	}
	return tmpl, nil
}

// suite instantiates every benchmark program at sizes drawn from seed.
func suite(root string, seed uint64) ([]program, error) {
	r := rng(seed, streamSizes)
	progs := make([]program, 0, len(bench.Programs))
	for _, bp := range bench.Programs {
		tmpl, err := template(root, bp)
		if err != nil {
			return nil, err
		}
		sizes := drawSizes(r, bp)
		src, err := instantiate(tmpl, sizes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bp.Name, err)
		}
		progs = append(progs, program{name: bp.Name, file: bp.Name + ".icc", src: src, sizes: sizes})
	}
	return progs, nil
}

// smallSuite instantiates every program at its fixed small scale.
func smallSuite(root string) ([]program, error) {
	progs := make([]program, 0, len(bench.Programs))
	for _, bp := range bench.Programs {
		tmpl, err := template(root, bp)
		if err != nil {
			return nil, err
		}
		sizes := map[string]int{}
		for k, v := range bp.Small {
			sizes[k], _ = strconv.Atoi(v)
		}
		src, err := instantiate(tmpl, sizes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bp.Name, err)
		}
		progs = append(progs, program{name: bp.Name, file: bp.Name + ".icc", src: src, sizes: sizes})
	}
	return progs, nil
}

// shuffledConfigs returns every program in each of ms, in an order drawn
// from the seed.
func shuffledConfigs(seed uint64, nprogs int, ms []pipeline.Mode) []compileConfig {
	var cs []compileConfig
	for p := 0; p < nprogs; p++ {
		for _, m := range ms {
			cs = append(cs, compileConfig{prog: p, mode: m})
		}
	}
	r := rng(seed, streamOrder)
	r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// reshuffled returns a copy of xs in an order drawn from r. The suite
// workloads reshuffle every pass, so no configuration always runs right
// after the same one (and so in the same collector state), which would
// make its median depend on the seed's order.
func reshuffled[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Edit kinds, each aimed at one session tier.
type editKind int

const (
	editIdentical  editKind = iota // byte-identical source: reuse
	editPayload                    // one integer literal, same width: patch
	editShift                      // a comment line inserted or removed: reopt
	editShape                      // a literal wrapped as (L + 0) or unwrapped: solve
	editStructural                 // a function added or removed: cold
)

var editKindNames = [...]string{"identical", "payload", "shift", "shape", "structural"}

func (k editKind) String() string { return editKindNames[k] }

// edit is one step of an edit script: the full edited source.
type edit struct {
	kind editKind
	src  string
}

// editEvents is how many edits of each kind one pass applies to a
// program; every applied edit is reverted later in the pass, so a pass
// ends on the source it started from and each pass repeats exactly.
var editEvents = map[editKind]int{editPayload: 3, editShift: 1, editShape: 1, editStructural: 1}

// editIdenticals is how many identical re-submissions a pass makes.
const editIdenticals = 2

// literalSite is an integer literal in code (not in a comment or string).
type literalSite struct{ start, end int }

// literalSites finds src's integer literals outside comments and strings.
func literalSites(src string) []literalSite {
	var sites []literalSite
	inStr := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isDigit(c):
			// Scan the whole number, a float's fraction included.
			j, isFloat := i, false
			for j < len(src) && (isDigit(src[j]) || src[j] == '.' && j+1 < len(src) && isDigit(src[j+1])) {
				isFloat = isFloat || src[j] == '.'
				j++
			}
			prev := byte(' ')
			if i > 0 {
				prev = src[i-1]
			}
			if !isFloat && !isIdent(prev) && (j == len(src) || !isIdent(src[j])) {
				sites = append(sites, literalSite{i, j})
			}
			i = j - 1
		}
	}
	return sites
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdent(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || isDigit(c)
}

// headerLines returns the offsets of the line starts before src's first
// declaration: inserting a line there shifts every position in the code.
func headerLines(src string) []int {
	var offs []int
	for off := 0; off < len(src); {
		line := src[off:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		if strings.HasPrefix(line, "class ") || strings.HasPrefix(line, "func ") || strings.HasPrefix(line, "var ") {
			break
		}
		offs = append(offs, off)
		off += len(line) + 1
	}
	return offs
}

// editState is which edits are applied to the base source.
type editState struct {
	payload map[int]string // literal site → replacement digits
	shape   map[int]bool   // literal site → wrapped
	shift   map[int]bool   // header line offset → comment inserted
	funcs   map[int]bool   // structural id → function appended
}

func (st *editState) render(base string, sites []literalSite) string {
	type repl struct {
		at, end int
		text    string
	}
	var rs []repl
	for i, s := range sites {
		text, changed := base[s.start:s.end], false
		if p, ok := st.payload[i]; ok {
			text, changed = p, true
		}
		if st.shape[i] {
			text, changed = "("+text+" + 0)", true
		}
		if changed {
			rs = append(rs, repl{s.start, s.end, text})
		}
	}
	for off := range st.shift {
		rs = append(rs, repl{off, off, "// perfbench: shifted\n"})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].at < rs[j].at })
	var b strings.Builder
	last := 0
	for _, r := range rs {
		b.WriteString(base[last:r.at])
		b.WriteString(r.text)
		last = r.end
	}
	b.WriteString(base[last:])
	ids := make([]int, 0, len(st.funcs))
	for id := range st.funcs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "\nfunc perfbenchPad%d() { return %d; }\n", id, id)
	}
	return b.String()
}

// editScript draws one pass of edits to base from r: editEvents edits of
// each kind, each applied and later reverted, plus editIdenticals
// identical re-submissions, in a seeded order.
func editScript(r *rand.Rand, base string) ([]edit, error) {
	sites := literalSites(base)
	header := headerLines(base)
	need := editEvents[editPayload] + editEvents[editShape]
	if len(sites) < need || len(header) < editEvents[editShift] {
		return nil, fmt.Errorf("source has %d literals and %d header lines; need %d and %d",
			len(sites), len(header), need, editEvents[editShift])
	}
	// Distinct sites per event, so no two events touch the same text.
	litPick := r.Perm(len(sites))[:need]
	linePick := r.Perm(len(header))[:editEvents[editShift]]

	type action struct {
		kind  editKind
		event int
		apply bool
	}
	var acts []action
	event := 0
	for _, k := range []editKind{editPayload, editShift, editShape, editStructural} {
		for i := 0; i < editEvents[k]; i++ {
			acts = append(acts, action{k, event, true}, action{k, event, false})
			event++
		}
	}
	r.Shuffle(len(acts), func(i, j int) { acts[i], acts[j] = acts[j], acts[i] })
	// Put each event's apply before its revert.
	seen := map[int]int{}
	for i, a := range acts {
		if j, ok := seen[a.event]; ok {
			if !acts[j].apply {
				acts[i], acts[j] = acts[j], acts[i]
			}
		} else {
			seen[a.event] = i
		}
	}
	for i := 0; i < editIdenticals; i++ {
		at := r.IntN(len(acts) + 1)
		acts = append(acts[:at], append([]action{{kind: editIdentical}}, acts[at:]...)...)
	}

	st := &editState{payload: map[int]string{}, shape: map[int]bool{}, shift: map[int]bool{}, funcs: map[int]bool{}}
	// Event numbers map to sites in kind order: payload events first,
	// then shift, shape and structural.
	np, nsh := editEvents[editPayload], editEvents[editShift]
	var script []edit
	prev := base
	for _, a := range acts {
		switch a.kind {
		case editPayload:
			site := litPick[a.event]
			if a.apply {
				st.payload[site] = otherDigits(r, base[sites[site].start:sites[site].end])
			} else {
				delete(st.payload, site)
			}
		case editShift:
			toggle(st.shift, header[linePick[a.event-np]], a.apply)
		case editShape:
			toggle(st.shape, litPick[a.event-nsh], a.apply)
		case editStructural:
			toggle(st.funcs, a.event, a.apply)
		}
		src := prev
		if a.kind != editIdentical {
			src = st.render(base, sites)
		}
		script = append(script, edit{kind: a.kind, src: src})
		prev = src
	}
	if prev != base {
		return nil, fmt.Errorf("edit script does not return to its base source")
	}
	return script, nil
}

func toggle(set map[int]bool, k int, on bool) {
	if on {
		set[k] = true
	} else {
		delete(set, k)
	}
}

// otherDigits returns a literal of the same width as lit with a different
// last digit (and no new leading zero).
func otherDigits(r *rand.Rand, lit string) string {
	b := []byte(lit)
	last := b[len(b)-1]
	for {
		d := byte('0' + r.IntN(10))
		if d != last && !(len(b) == 1 && d == '0') {
			b[len(b)-1] = d
			return string(b)
		}
	}
}

// Serve request classes.
type reqKind int

const (
	reqCompile reqKind = iota // warm /v1/compile
	reqExplain                // warm /v1/explain
	reqMiss                   // first-touch /v1/compile
	reqRun                    // /v1/run of a small-scale build
)

var reqKindNames = [...]string{"compile", "explain", "miss", "run"}

func (k reqKind) String() string { return reqKindNames[k] }

// request is one serve request: its class, program and mode, and for
// explain requests which of the program's decided fields to ask about.
type request struct {
	kind  reqKind
	prog  int
	mode  pipeline.Mode
	field int
}

// Per-round request mix. Every round first-touches each program in both
// optimizing modes once and runs each small build once; the rest are
// warm hits.
const (
	roundCompiles = 3200
	roundExplains = 800
)

// roundRequests draws round i's request sequence.
func roundRequests(seed uint64, round, nprogs int) []request {
	r := rand.New(rand.NewPCG(seed, streamRequests<<32|uint64(round)))
	opt := []pipeline.Mode{pipeline.ModeBaseline, pipeline.ModeInline}
	var reqs []request
	for p := 0; p < nprogs; p++ {
		for _, m := range opt {
			reqs = append(reqs, request{kind: reqMiss, prog: p, mode: m}, request{kind: reqRun, prog: p, mode: m})
		}
	}
	for i := 0; i < roundCompiles; i++ {
		reqs = append(reqs, request{kind: reqCompile, prog: r.IntN(nprogs), mode: opt[r.IntN(2)]})
	}
	for i := 0; i < roundExplains; i++ {
		reqs = append(reqs, request{kind: reqExplain, prog: r.IntN(nprogs), mode: pipeline.ModeInline, field: r.IntN(1 << 16)})
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}
