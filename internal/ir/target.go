package ir

// Target describes the dedicated-register structure of the machine, in the
// style of the ST120 DSP targeted by the paper's LAO tool: general-purpose
// registers R0..R15 of which R0..R3 pass parameters and R0 returns
// results, pointer registers P0..P7 of which P0..P1 pass pointer
// parameters, and the stack pointer SP.
//
// Target tables are created per-Func by NewFunc so that physical register
// handles are function-local (value IDs are function-local) and occupy
// the dense ID prefix [0, NumPhysRegs). A Target is immutable after
// NewFunc and holds only handles, so Clone shares it between the
// original and the copy.
type Target struct {
	R  []ValueID // general-purpose registers R0..
	P  []ValueID // pointer registers P0..
	SP ValueID   // stack pointer

	// ArgRegs are the registers used for integer parameter passing, in
	// order (R0, R1, ...). RetRegs are the result registers (R0, ...).
	// PtrArgRegs pass pointer parameters (P0, ...).
	ArgRegs    []ValueID
	RetRegs    []ValueID
	PtrArgRegs []ValueID
}

const (
	numR       = 16
	numP       = 8
	numArgRegs = 4
	numRetRegs = 2
	numPtrArgs = 2
)

// NumPhysRegs is the size of the physical-register ID prefix every
// function's value table starts with (R0..R15, P0..P7, SP).
const NumPhysRegs = numR + numP + 1

func newTarget(f *Func) *Target {
	t := &Target{}
	for i := 0; i < numR; i++ {
		t.R = append(t.R, f.newValue(regName("R", i), Physical))
	}
	for i := 0; i < numP; i++ {
		t.P = append(t.P, f.newValue(regName("P", i), Physical))
	}
	t.SP = f.newValue("SP", Physical)
	t.ArgRegs = t.R[:numArgRegs]
	t.RetRegs = t.R[:numRetRegs]
	t.PtrArgRegs = t.P[:numPtrArgs]
	return t
}

func regName(prefix string, i int) string {
	return prefix + itoa64(int64(i))
}
