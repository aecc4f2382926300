package ir

// Typed handles are the public identity of every IR entity. A handle is
// an index into a slab owned by the enclosing *Func: ValueID indexes the
// value table, InstrID the instruction arena, BlockID the block arena.
// Handles are durable across Clone and RestoreFrom (the clone of a
// function has the same IDs denoting the corresponding entities), are
// directly usable as dense-table indices, and are comparable — which is
// what lets every map formerly keyed on *Value/*Instr pointers key on a
// 4-byte integer instead, and lets Clone copy the slabs with memcpy
// because nothing in them is position-dependent.
//
// *Instr and *Block remain available as ergonomic views: they are stable
// pointers into chunked arenas (chunks never move once allocated), valid
// for the lifetime of their owning Func. They are NOT valid across
// Clone/RestoreFrom boundaries — re-resolve through f.Instr(id) /
// f.Block(id) on the other side. See DESIGN.md §12 for the full
// aliasing contract.

// ValueID identifies a value (virtual register or dedicated physical
// register) within its function. IDs are dense: 0 <= id < f.NumValues(),
// with the physical-register prefix created by NewFunc occupying the
// lowest IDs. The zero value is R0; use NoValue for "absent".
type ValueID int32

// InstrID identifies an instruction slot in the function's instruction
// arena. Slots are never reused: an instruction removed from its block
// keeps its ID (detached, Block() == nil) until the function is dropped.
type InstrID int32

// BlockID identifies a basic block. Dense in creation order:
// 0 <= id < f.NumBlocks().
type BlockID int32

// Sentinel "absent" handles. The Operand encoding is chosen so that the
// zero Operand is an unpinned use of R0, never an accidental pin.
const (
	NoValue ValueID = -1
	NoInstr InstrID = -1
	NoBlock BlockID = -1
)

// Arena chunk geometry. Chunks are fixed-size so that element addresses
// are stable under growth (a new chunk is allocated; existing chunks
// never move), which is what keeps *Instr/*Block views valid while the
// function grows. The sizes follow the functions the pipeline sees (in
// SSA form the paper-suite functions average 87 instructions and 14
// blocks, and 171 of 228 have fewer than 100 instructions): Snapshot
// and Clone copy whole chunks, so a chunk much larger than a typical
// function is copied mostly empty.
const (
	instrChunkShift = 6
	instrChunkSize  = 1 << instrChunkShift // 64 instructions
	instrChunkMask  = instrChunkSize - 1

	blockChunkShift = 3
	blockChunkSize  = 1 << blockChunkShift // 8 blocks
	blockChunkMask  = blockChunkSize - 1
)

type instrChunk [instrChunkSize]Instr
type blockChunk [blockChunkSize]Block
