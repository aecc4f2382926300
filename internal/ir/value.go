// Package ir defines a machine-level intermediate representation modeled
// after the Linear Assembly Input (LAI) language of the STMicroelectronics
// Linear Assembly Optimizer, as described in Rastello, de Ferrière and
// Guillon, "Optimizing Translation Out of SSA Using Renaming Constraints"
// (CGO 2004).
//
// The IR supports both pre-SSA (multiple definitions per value) and SSA
// (single definition, phi instructions) forms. Textual operands can be
// pinned to resources — either dedicated physical registers (R0, SP, ...)
// or virtual resources — which is the mechanism the paper's out-of-SSA
// algorithms use to express renaming constraints and coalescing decisions.
//
// The representation is structure-of-arrays: a *Func owns flat slabs of
// value metadata, operands and instruction lists, addressed by the typed
// int32 handles of handle.go. Entities never hold pointers to each other
// — every cross-reference is a handle — which makes Clone a handful of
// slab copies and keeps the long-lived analysis caches nearly free of GC
// scan work.
package ir

// ValueKind distinguishes virtual registers (variables) from dedicated
// physical registers.
type ValueKind uint8

const (
	// Virtual is a general-purpose virtual register; the paper assumes an
	// unlimited supply of these, with physical constraints handled later
	// by register allocation.
	Virtual ValueKind = iota
	// Physical is a dedicated machine register (R0, SP, ...). Two distinct
	// physical registers always strongly interfere.
	Physical
)

// valData is the per-value metadata slab entry. Values are immutable
// after creation, so Clone can share the string backing and copy the
// slab with a single append.
type valData struct {
	name string
	kind ValueKind
}

// Operand is a textual occurrence of a value in an instruction, either as
// a definition or a use. The pin, when present, pre-colors this occurrence
// to a resource (paper §2.1: "resource pinning is a pre-coloring of
// operands to resources").
//
// Operands are pure handle pairs — position-independent and pointer-free —
// so the per-function operand slab can be copied verbatim by Clone and
// encoded verbatim by the b1 wire format. The pin is stored biased by +1
// so that the zero Operand is an unpinned use of R0: constructing
// Operand{Val: v} is always safe, and pins can only be attached through
// WithPin or the Instr pin mutators (which is how the no-generation-bump
// rule for pins is enforced).
type Operand struct {
	Val ValueID
	pin ValueID // 0 = unpinned, else pin+1
}

// Pinned reports whether the operand is pinned to a resource.
func (o Operand) Pinned() bool { return o.pin != 0 }

// Pin returns the resource this operand is pinned to, or NoValue.
func (o Operand) Pin() ValueID {
	if o.pin == 0 {
		return NoValue
	}
	return o.pin - 1
}

// WithPin returns a copy of o pinned to r. r == NoValue clears the pin.
func (o Operand) WithPin(r ValueID) Operand {
	if r == NoValue {
		o.pin = 0
	} else {
		o.pin = r + 1
	}
	return o
}

// Ops builds an operand list over the given values, unpinned. It is the
// construction helper used by the Builder, the parsers and the passes.
func Ops(vals ...ValueID) []Operand {
	out := make([]Operand, len(vals))
	for i, v := range vals {
		out[i] = Operand{Val: v}
	}
	return out
}

// MergeIDs merges two ascending lists of distinct value IDs into a new
// ascending list with len == cap, so an append to the result never
// writes into memory another holder of it can see. Sreedhar's φ
// congruence classes keep their member lists with it; pin.Resources
// appends its merged lists to a slab of its own.
func MergeIDs(a, b []ValueID) []ValueID {
	out := make([]ValueID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
