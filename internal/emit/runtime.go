package emit

// runtimeSrc is the static runtime preamble shared by every emitted
// package: the tagged value type, the object interface the generated
// structs implement, and helpers that replicate the reference VM's
// observable semantics — trap messages, print rendering, float
// formatting, identity — character for character (differential tests
// compare engine output byte-wise). The program-specific parts (class
// structs, metadata tables, dispatchers, globals, runOnce) are generated
// by emit.go; main() here drives them through the harness protocol:
//
//	prog [-reps=N] [-measure=FILE]
//
// runs the program N times (only the first reprint is unmuted), writes a
// small JSON measurement record (wall time and runtime.MemStats deltas)
// to FILE, and exits 3 with the trap message on stderr when the program
// raises a runtime error.
const runtimeSrc = `// ---- runtime preamble (static) ----

type value struct {
	k    uint8
	i    int64
	f    float64
	s    string
	o    obj
	a    *array
	base int
}

const (
	kNil      uint8 = 0
	kInt      uint8 = 1
	kFloat    uint8 = 2
	kBool     uint8 = 3
	kStr      uint8 = 4
	kObj      uint8 = 5
	kArr      uint8 = 6
	kInterior uint8 = 7
)

var kindNames = [...]string{"nil", "int", "float", "bool", "string", "object", "array", "interior"}

// obj is implemented by every generated class struct.
type obj interface {
	cid() int32
	cname() string
	pname() string
	get(slot int) value
	set(slot int, v value)
	slotOf(name string) int
}

// array backs both plain arrays (stride 0, one value per element) and
// inlined arrays (stride slots of flattened element state, object-order
// in elems or as parallel column vectors in cols).
type array struct {
	length int
	elems  []value
	stride int
	cols   [][]value
}

func ival(i int64) value   { return value{k: kInt, i: i} }
func fval(f float64) value { return value{k: kFloat, f: f} }
func sval(s string) value  { return value{k: kStr, s: s} }
func oval(o obj) value     { return value{k: kObj, o: o} }
func aval(a *array) value  { return value{k: kArr, a: a} }

func bval(b bool) value {
	if b {
		return value{k: kBool, i: 1}
	}
	return value{k: kBool}
}

// rtError is a Mini-ICC runtime failure; its text matches the VM's
// RuntimeError.Error() exactly.
type rtError struct {
	pos string
	msg string
}

func (e *rtError) Error() string {
	if e.pos == "" {
		return "runtime error: " + e.msg
	}
	return "runtime error at " + e.pos + ": " + e.msg
}

func rte(pos, msg string) *rtError { return &rtError{pos: pos, msg: msg} }

func truthy(v value) bool {
	switch v.k {
	case kNil:
		return false
	case kBool, kInt:
		return v.i != 0
	case kFloat:
		return v.f != 0
	default:
		return true
	}
}

func isnum(v value) bool { return v.k == kInt || v.k == kFloat }

func tofloat(v value) float64 {
	if v.k == kFloat {
		return v.f
	}
	return float64(v.i)
}

// identical is reference identity (==): numeric cross-kind comparison is
// value equality, interior references compare by (container, base).
func identical(a, b value) bool {
	if a.k != b.k {
		if isnum(a) && isnum(b) {
			return tofloat(a) == tofloat(b)
		}
		return false
	}
	switch a.k {
	case kNil:
		return true
	case kInt, kBool:
		return a.i == b.i
	case kFloat:
		return a.f == b.f
	case kStr:
		return a.s == b.s
	case kObj:
		return a.o == b.o
	case kArr:
		return a.a == b.a
	case kInterior:
		return a.a == b.a && a.base == b.base
	}
	return false
}

// vstring renders a value the way the print builtin does.
func vstring(v value) string {
	switch v.k {
	case kNil:
		return "nil"
	case kInt:
		return strconv.FormatInt(v.i, 10)
	case kFloat:
		return strconv.FormatFloat(v.f, 'g', 10, 64)
	case kBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case kStr:
		return v.s
	case kObj:
		return "<" + v.o.pname() + ">"
	case kArr:
		return "<array len=" + strconv.Itoa(v.a.length) + ">"
	case kInterior:
		return "<interior>"
	}
	return "<?>"
}

func issub(c, owner int32) bool {
	for ; c >= 0; c = supers[c] {
		if c == owner {
			return true
		}
	}
	return false
}

// getfield loads a field from an object or interior reference. Slot-bound
// references (slot >= 0, owner >= 0) hit the struct member directly when
// the receiver's class descends from the binding owner; otherwise the
// dynamic by-name path runs, exactly like the VM's resolveSlot fallback.
func getfield(recv value, slot, owner int, name, pos string) value {
	switch recv.k {
	case kObj:
		o := recv.o
		if slot >= 0 && owner >= 0 && issub(o.cid(), int32(owner)) {
			return o.get(slot)
		}
		s := o.slotOf(name)
		if s < 0 {
			panic(rte(pos, "class "+o.cname()+" has no field "+name))
		}
		return o.get(s)
	case kInterior:
		if slot < 0 || owner >= 0 {
			panic(rte(pos, "unspecialized field access "+strconv.Quote(name)+" on interior reference"))
		}
		a := recv.a
		if a.cols != nil {
			return a.cols[slot][recv.base]
		}
		return a.elems[recv.base+slot]
	case kNil:
		panic(rte(pos, "field "+name+" of nil"))
	}
	panic(rte(pos, "field "+name+" of "+kindNames[recv.k]+" value"))
}

func setfield(recv, v value, slot, owner int, name, pos string) {
	switch recv.k {
	case kObj:
		o := recv.o
		if slot >= 0 && owner >= 0 && issub(o.cid(), int32(owner)) {
			o.set(slot, v)
			return
		}
		s := o.slotOf(name)
		if s < 0 {
			panic(rte(pos, "class "+o.cname()+" has no field "+name))
		}
		o.set(s, v)
		return
	case kInterior:
		if slot < 0 || owner >= 0 {
			panic(rte(pos, "unspecialized field store "+strconv.Quote(name)+" on interior reference"))
		}
		a := recv.a
		if a.cols != nil {
			a.cols[slot][recv.base] = v
			return
		}
		a.elems[recv.base+slot] = v
		return
	case kNil:
		panic(rte(pos, "store to field "+name+" of nil"))
	}
	panic(rte(pos, "store to field "+name+" of "+kindNames[recv.k]+" value"))
}

func wantint(v value, pos string) int64 {
	if v.k != kInt {
		panic(rte(pos, "expected int, got "+kindNames[v.k]))
	}
	return v.i
}

func wantnum(v value, pos string) float64 {
	if !isnum(v) {
		panic(rte(pos, "expected number, got "+kindNames[v.k]))
	}
	return tofloat(v)
}

// The VM's array bounds (vm's maxArrayLength and maxArraySlots): arrlen
// traps past them with the VM's message.
const (
	maxArrayLength = 1 << 32
	maxArraySlots  = 1 << 40
)

// arrlen checks a requested array length for an array whose elements
// are stride slots wide (0 for a plain array).
func arrlen(n value, stride int, pos string) int {
	ln := wantint(n, pos)
	if ln < 0 {
		panic(rte(pos, "negative array length "+strconv.FormatInt(ln, 10)))
	}
	if ln > maxArrayLength || stride > 0 && ln > maxArraySlots/int64(stride) {
		panic(rte(pos, "array length "+strconv.FormatInt(ln, 10)+" out of range"))
	}
	return int(ln)
}

func newarr(n value, pos string) value {
	ln := arrlen(n, 0, pos)
	return aval(&array{length: ln, elems: make([]value, ln)})
}

func newinl(n value, stride int, parallel bool, pos string) value {
	ln := arrlen(n, stride, pos)
	a := &array{length: ln, stride: stride}
	if parallel {
		a.cols = make([][]value, stride)
		for i := range a.cols {
			a.cols[i] = make([]value, ln)
		}
	} else {
		a.elems = make([]value, ln*stride)
	}
	return aval(a)
}

func index(a *array, iv value, pos string) int {
	i := wantint(iv, pos)
	if i < 0 || int(i) >= a.length {
		panic(rte(pos, "array index "+strconv.FormatInt(i, 10)+" out of range [0,"+strconv.Itoa(a.length)+")"))
	}
	return int(i)
}

func arrget(av, iv value, pos string) value {
	if av.k != kArr {
		panic(rte(pos, "indexing a "+kindNames[av.k]+" value"))
	}
	a := av.a
	i := index(a, iv, pos)
	if a.stride != 0 {
		panic(rte(pos, "plain load from inlined array (unspecialized access)"))
	}
	return a.elems[i]
}

func arrset(av, iv, v value, pos string) {
	if av.k != kArr {
		panic(rte(pos, "indexing a "+kindNames[av.k]+" value"))
	}
	a := av.a
	i := index(a, iv, pos)
	if a.stride != 0 {
		panic(rte(pos, "plain store to inlined array (unspecialized access)"))
	}
	a.elems[i] = v
}

func arrinterior(av, iv value, pos string) value {
	if av.k != kArr {
		panic(rte(pos, "indexing a "+kindNames[av.k]+" value"))
	}
	a := av.a
	i := index(a, iv, pos)
	if a.stride == 0 {
		panic(rte(pos, "interior reference into a plain array"))
	}
	if a.cols != nil {
		return value{k: kInterior, a: a, base: i}
	}
	return value{k: kInterior, a: a, base: i * a.stride}
}

// Binary operator codes; order mirrors the IR's BinOp enum.
const (
	opAdd = 0
	opSub = 1
	opMul = 2
	opDiv = 3
	opMod = 4
	opEq  = 5
	opNe  = 6
	opLt  = 7
	opLe  = 8
	opGt  = 9
	opGe  = 10
)

var opSyms = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="}

func arith(op int, x, y value, pos string) value {
	switch op {
	case opEq:
		return bval(identical(x, y))
	case opNe:
		return bval(!identical(x, y))
	}
	if x.k == kStr && y.k == kStr {
		switch op {
		case opAdd:
			return sval(x.s + y.s)
		case opLt:
			return bval(x.s < y.s)
		case opLe:
			return bval(x.s <= y.s)
		case opGt:
			return bval(x.s > y.s)
		case opGe:
			return bval(x.s >= y.s)
		}
		panic(rte(pos, "operator "+opSyms[op]+" not defined on strings"))
	}
	if !isnum(x) || !isnum(y) {
		panic(rte(pos, "operator "+opSyms[op]+" on "+kindNames[x.k]+" and "+kindNames[y.k]))
	}
	if x.k == kInt && y.k == kInt {
		a, b := x.i, y.i
		switch op {
		case opAdd:
			return ival(a + b)
		case opSub:
			return ival(a - b)
		case opMul:
			return ival(a * b)
		case opDiv:
			if b == 0 {
				panic(rte(pos, "integer division by zero"))
			}
			return ival(a / b)
		case opMod:
			if b == 0 {
				panic(rte(pos, "integer modulo by zero"))
			}
			return ival(a % b)
		case opLt:
			return bval(a < b)
		case opLe:
			return bval(a <= b)
		case opGt:
			return bval(a > b)
		case opGe:
			return bval(a >= b)
		}
	}
	a, b := tofloat(x), tofloat(y)
	switch op {
	case opAdd:
		return fval(a + b)
	case opSub:
		return fval(a - b)
	case opMul:
		return fval(a * b)
	case opDiv:
		return fval(a / b)
	case opMod:
		return fval(math.Mod(a, b))
	case opLt:
		return bval(a < b)
	case opLe:
		return bval(a <= b)
	case opGt:
		return bval(a > b)
	case opGe:
		return bval(a >= b)
	}
	panic(rte(pos, "unknown binary operator"))
}

func uneg(x value, pos string) value {
	switch x.k {
	case kInt:
		return ival(-x.i)
	case kFloat:
		return fval(-x.f)
	}
	panic(rte(pos, "negating a "+kindNames[x.k]+" value"))
}

var (
	out   = bufio.NewWriter(os.Stdout)
	muted bool
)

func bprint(args ...value) value {
	if !muted {
		for i, a := range args {
			if i > 0 {
				out.WriteByte(' ')
			}
			out.WriteString(vstring(a))
		}
		out.WriteByte('\n')
	}
	return value{}
}

func bsqrt(v value, pos string) value  { return fval(math.Sqrt(wantnum(v, pos))) }
func bfloor(v value, pos string) value { return fval(math.Floor(wantnum(v, pos))) }

func babs(v value, pos string) value {
	switch v.k {
	case kInt:
		if v.i < 0 {
			return ival(-v.i)
		}
		return v
	case kFloat:
		return fval(math.Abs(v.f))
	}
	panic(rte(pos, "abs of "+kindNames[v.k]+" value"))
}

func bminmax(isMin bool, x, y value, pos string) value {
	if x.k == kInt && y.k == kInt {
		if isMin == (x.i < y.i) {
			return x
		}
		return y
	}
	a := wantnum(x, pos)
	c := wantnum(y, pos)
	if isMin == (a < c) {
		return fval(a)
	}
	return fval(c)
}

func blen(v value, pos string) value {
	switch v.k {
	case kArr:
		return ival(int64(v.a.length))
	case kStr:
		return ival(int64(len(v.s)))
	}
	panic(rte(pos, "len of "+kindNames[v.k]+" value"))
}

func bintof(v value, pos string) value {
	switch v.k {
	case kInt:
		return v
	case kFloat:
		return ival(int64(v.f))
	}
	panic(rte(pos, "intof of "+kindNames[v.k]+" value"))
}

func bfloatof(v value, pos string) value { return fval(wantnum(v, pos)) }

func bassert(v value, pos string) value {
	if !truthy(v) {
		panic(rte(pos, "assertion failed"))
	}
	return value{}
}

func bstrcat(x, y value) value { return sval(vstring(x) + vstring(y)) }

func bbxor(x, y value, pos string) value {
	if x.k != kInt || y.k != kInt {
		panic(rte(pos, "bxor needs ints, got "+kindNames[x.k]+" and "+kindNames[y.k]))
	}
	return ival(x.i ^ y.i)
}

// main drives the generated program through the harness protocol: run
// -reps times (output muted after the first), write the measurement
// record, and exit 3 with the trap text on stderr if the program trapped.
func main() {
	reps := 1
	measure := ""
	for _, a := range os.Args[1:] {
		switch {
		case strings.HasPrefix(a, "-reps="):
			if n, err := strconv.Atoi(a[len("-reps="):]); err == nil && n > 0 {
				reps = n
			}
		case strings.HasPrefix(a, "-measure="):
			measure = a[len("-measure="):]
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	trap := ""
	for rep := 0; rep < reps; rep++ {
		muted = rep > 0
		resetGlobals()
		if trap = runOnce(); trap != "" {
			break
		}
	}
	wall := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	out.Flush()
	if measure != "" {
		f, err := os.Create(measure)
		if err == nil {
			fmt.Fprintf(f, "{\"wall_nanos\":%d,\"reps\":%d,\"mallocs\":%d,\"alloc_bytes\":%d}\n",
				wall, reps, ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc)
			f.Close()
		}
	}
	if trap != "" {
		fmt.Fprintln(os.Stderr, trap)
		os.Exit(3)
	}
}

// ---- generated program ----
`
