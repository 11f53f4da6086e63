// Package vm executes IR programs on an explicit uniform object model:
// a heap of objects and arrays with synthetic addresses, reference values,
// dynamic dispatch, and — after the inlining transformation — interior
// references into inlined array storage. The VM doubles as the measurement
// substrate: it counts dereferences, allocations, and dispatches, and it
// charges a deterministic cycle cost per operation with a simulated data
// cache (see DESIGN.md §2 for why this stands in for the paper's
// SparcStation + G++ testbed).
package vm

import (
	"fmt"
	"math"
	"strconv"

	"objinline/internal/ir"
)

// Kind discriminates runtime values.
type Kind uint8

// Runtime value kinds.
const (
	KNil Kind = iota
	KInt
	KFloat
	KBool
	KStr
	KObj
	KArr
	KInterior // reference into an inlined array's element storage
)

var kindNames = [...]string{"nil", "int", "float", "bool", "string", "object", "array", "interior"}

func (k Kind) String() string { return kindNames[k] }

// Value is one runtime value, passed by value in 32 bytes: a kind byte,
// one 8-byte payload (an int, a bool as 0/1, float bits, or an interior
// reference's base slot) and one reference word holding the *Object,
// *Array or *string the value refers to. Only the referenced objects and
// arrays are shared state; strings are immutable.
type Value struct {
	kind Kind
	bits uint64
	ref  any
}

// Convenience constructors.

// NilValue returns the nil reference.
func NilValue() Value { return Value{} }

// IntValue boxes an int.
func IntValue(i int64) Value { return Value{kind: KInt, bits: uint64(i)} }

// FloatValue boxes a float.
func FloatValue(f float64) Value { return Value{kind: KFloat, bits: math.Float64bits(f)} }

// BoolValue boxes a bool.
func BoolValue(b bool) Value {
	if b {
		return Value{kind: KBool, bits: 1}
	}
	return Value{kind: KBool}
}

// StrValue boxes a string.
func StrValue(s string) Value { return strRef(&s) }

// strRef boxes *p without copying it, so a string constant of the program
// costs no allocation; nothing writes through p.
func strRef(p *string) Value { return Value{kind: KStr, ref: p} }

// ObjValue boxes an object reference.
func ObjValue(o *Object) Value { return Value{kind: KObj, ref: o} }

// ArrValue boxes an array reference.
func ArrValue(a *Array) Value { return Value{kind: KArr, ref: a} }

// InteriorValue references the inlined state of element slot base in a.
func InteriorValue(a *Array, base int) Value {
	return Value{kind: KInterior, bits: uint64(base), ref: a}
}

// Int returns the int payload (0 or 1 for a bool).
func (v Value) Int() int64 { return int64(v.bits) }

// Float returns the float payload.
func (v Value) Float() float64 { return math.Float64frombits(v.bits) }

// Str returns the string payload.
func (v Value) Str() string { return *v.ref.(*string) }

// Obj returns the referenced object.
func (v Value) Obj() *Object { return v.ref.(*Object) }

// Arr returns the referenced array (the container, for an interior
// reference).
func (v Value) Arr() *Array { return v.ref.(*Array) }

// Base returns an interior reference's first slot.
func (v Value) Base() int { return int(v.bits) }

// Truthy reports the boolean interpretation used by branches: false, nil,
// and numeric zero are false.
func (v Value) Truthy() bool {
	switch v.kind {
	case KNil:
		return false
	case KBool, KInt:
		return v.bits != 0
	case KFloat:
		return v.Float() != 0
	default:
		return true
	}
}

// String renders the value the way the print builtin does.
func (v Value) String() string {
	switch v.kind {
	case KNil:
		return "nil"
	case KInt:
		return strconv.FormatInt(v.Int(), 10)
	case KFloat:
		return formatFloat(v.Float())
	case KBool:
		if v.bits != 0 {
			return "true"
		}
		return "false"
	case KStr:
		return v.Str()
	case KObj:
		// Print the source-level class name: restructured class versions
		// must be observationally identical to the original program.
		return "<" + v.Obj().Class.Source().Name + ">"
	case KArr:
		return fmt.Sprintf("<array len=%d>", v.Arr().Length)
	case KInterior:
		return "<interior>"
	default:
		return "<?>"
	}
}

// formatFloat prints floats with a stable format shared by the original
// and transformed programs (differential tests compare output text).
func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', 10, 64)
	return s
}

// Identical implements reference identity (==) on values. Inlined objects
// compare by (container, base) so identity is preserved by the
// transformation.
func Identical(a, b Value) bool {
	if a.kind != b.kind {
		// Numeric cross-kind comparison is value equality.
		if isNum(a) && isNum(b) {
			return numEq(a, b)
		}
		return false
	}
	switch a.kind {
	case KNil:
		return true
	case KInt, KBool:
		return a.bits == b.bits
	case KFloat:
		return a.Float() == b.Float()
	case KStr:
		return a.Str() == b.Str()
	case KObj, KArr:
		return a.ref == b.ref
	case KInterior:
		return a.ref == b.ref && a.bits == b.bits
	}
	return false
}

func isNum(v Value) bool { return v.kind == KInt || v.kind == KFloat }

func numEq(a, b Value) bool {
	return toF(a) == toF(b)
}

func toF(v Value) float64 {
	if v.kind == KFloat {
		return v.Float()
	}
	return float64(v.Int())
}

// Object is a heap object: a class pointer and one slot per field.
type Object struct {
	Class *ir.Class
	Slots []Value
	Addr  uint64 // synthetic byte address of the object header

	// site is the profiler's allocation-site tag (1-based; 0 when the run
	// is unprofiled). Only the Profile that allocated the object reads it.
	site int32
}

// SlotAddr returns the synthetic address of slot i.
func (o *Object) SlotAddr(i int) uint64 { return o.Addr + headerBytes + uint64(i)*slotBytes }

// Array is a heap array. Plain arrays hold one Value per element
// (Stride == 0). Inlined arrays hold the flattened object state of each
// element: Stride slots per element in object order, or — with the
// parallel layout — Stride column vectors of Length values each.
type Array struct {
	Length int
	Elems  []Value   // plain: len == Length; inlined object-order: len == Length*Stride
	Stride int       // 0 for plain arrays
	Cols   [][]Value // parallel layout: Stride columns of Length slots
	Class  *ir.Class // element class for inlined arrays
	Addr   uint64

	// site is the profiler's allocation-site tag (see Object.site).
	site int32
}

// Parallel reports whether the array uses the parallel-column layout.
func (a *Array) Parallel() bool { return a.Cols != nil }

// SlotAddr returns the synthetic address of flat slot i (object-order
// layout) or of column c, row r (parallel layout, via ColAddr).
func (a *Array) SlotAddr(i int) uint64 { return a.Addr + headerBytes + uint64(i)*slotBytes }

// ColAddr returns the synthetic address of column c, row r for the
// parallel layout; columns are laid out one after another.
func (a *Array) ColAddr(c, r int) uint64 {
	return a.Addr + headerBytes + uint64(c*a.Length+r)*slotBytes
}

// Synthetic memory layout constants: a two-word object header (class
// pointer + allocator word, typical for mid-90s runtimes) plus 8-byte
// slots. Heap allocations are additionally rounded up to 32-byte
// allocator bins (binPad), which is what makes arrays of small heap
// objects so much less cache-dense than inlined storage — the effect
// behind the paper's polyover and OOPACK numbers.
const (
	headerBytes = 16
	slotBytes   = 8
	binBytes    = 32
)

// padAlloc rounds a heap allocation to its allocator bin.
func padAlloc(size uint64) uint64 {
	return (size + binBytes - 1) / binBytes * binBytes
}

// Exported layout geometry for tooling: the payoff attribution derives its
// static per-field predictions from the same allocator geometry the VM
// charges.
const (
	// HeaderBytes is the object/array header size.
	HeaderBytes = headerBytes
	// SlotBytes is the size of one field or element slot.
	SlotBytes = slotBytes
	// BinBytes is the allocator bin granularity heap sizes round up to.
	BinBytes = binBytes
)

// PadAlloc rounds a heap allocation size to its allocator bin, exactly as
// the VM's allocator does.
func PadAlloc(size uint64) uint64 { return padAlloc(size) }

// Stack-page modeling for elided temporaries: a small window of addresses
// far from the heap that stays cache-hot, like a real call stack.
const (
	stackBase   uint64 = 1 << 40
	stackWindow uint64 = 4096
)
