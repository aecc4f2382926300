package ir

import "sync/atomic"

// Copy-on-write snapshots.
//
// Snapshot is the batch driver's and the server's replacement for the
// per-job Clone: it produces a *Func that shares the parent's flat
// slabs (values, operands, code, CFG edge lists) instead of copying
// them, and defers each copy until the first mutating accessor that
// would write the shared storage actually fires. Read-heavy jobs —
// metric extraction, verification, liveness/dominator queries,
// cache-hit server requests — therefore pay no slab copy at all.
//
// What is shared and what is not:
//
//   - The value, operand and code slabs and the per-block pred/succ
//     edge arrays are position-independent and pointer-free, so they
//     are shared byte-for-byte. While shared they are immutable: every
//     mutator of this package routes through a cow* hook (see below)
//     that copies the slab it is about to write — exactly the copies
//     Clone performs eagerly, just deferred to first use.
//   - The instruction and block arena chunks carry fn back-pointers
//     (an Instr or Block must resolve to the function that owns it, or
//     mutations through held pointers would route to the wrong
//     generation counters and the wrong slabs), so chunks cannot be
//     shared between two live Funcs. Snapshot copies them eagerly, the
//     same per-chunk memcpy + fix-up Clone does. The chunks are the
//     O(arena chunks) allocation floor; the flat slabs are the memory
//     *bandwidth* bulk, and those are the part COW elides.
//
// Sharing is tracked by a refcounted cowState hanging off every Func
// attached to the same frozen slab family. The per-slab share flags
// (sharedOps, sharedCode, sharedEdges) say which storage this Func
// still reads through the shared family; the value slab needs no flag
// because it is append-only and frozen at capacity, so a post-snapshot
// NewValue reallocates away from the family automatically.
//
// Concurrency protocol: one goroutine owns each Func, and only it may
// mutate the Func or request its analyses (internal/analysis fills a
// memo on the Func without locks). Freeze is single-goroutine (callers
// freeze a master before handing it to workers); after that, any
// number of goroutines may Snapshot the frozen master concurrently,
// and each snapshot belongs to the goroutine that took it. The cow
// hooks keep the storage private to its owner: the first mutation
// copies, so no write ever lands in storage another goroutine can see.
type cowState struct {
	// refs counts the Funcs that may still read the family's mutable
	// shared storage (operand/code slabs, edge arrays): the frozen
	// parent plus every snapshot that has not fully materialized. A
	// materialization that finds refs == 1 adopts the storage in place
	// instead of copying — nobody else can observe the writes.
	refs atomic.Int32
}

// Freeze prepares f for zero-copy snapshots: it installs the shared
// cowState and caps the flat slabs at their current length, so any
// later append — from f itself or from a snapshot — reallocates away
// from the shared backing instead of writing through spare capacity.
// Freeze is idempotent and cheap (no allocation beyond the cowState,
// no copying). The first Freeze of a Func must not race with other
// accesses; afterwards Snapshot is safe to call concurrently.
//
// A frozen Func remains fully usable, including mutation: its own
// mutators take the same copy-on-write path a snapshot's do, so the
// snapshots keep reading the retired storage unharmed.
func (f *Func) Freeze() {
	if f.cow != nil {
		if f.sharedOps && f.sharedCode && f.sharedEdges {
			// Fully shared family member: already frozen, every slab is
			// the family's capacity-capped storage.
			return
		}
		// Partially materialized snapshot: the slabs it already faulted
		// are private and NOT capacity-capped, so sharing them through
		// the old family would let f keep writing storage a new snapshot
		// reads (the in-place fast path skips the cow hooks once a share
		// flag clears). Materialize the rest, leave the old family, and
		// re-freeze the now fully private storage from scratch.
		for f.cow != nil {
			switch {
			case f.sharedOps:
				f.cowFault(cowSlabOps)
			case f.sharedCode:
				f.cowFault(cowSlabCode)
			default:
				f.cowFault(cowSlabEdges)
			}
		}
	}
	c := &cowState{}
	c.refs.Store(1)
	f.vals = f.vals[:len(f.vals):len(f.vals)]
	f.ops = f.ops[:len(f.ops):len(f.ops)]
	f.code = f.code[:len(f.code):len(f.code)]
	f.sharedOps, f.sharedCode, f.sharedEdges = true, true, true
	f.cow = c
}

// Frozen reports whether f currently shares slab storage with other
// Funcs (it is a frozen master or an un-materialized snapshot). Tests
// use it to check which side of a copy-on-write family still shares
// the slabs, for instance that faultinject's aliasing probe leaves its
// function frozen.
func (f *Func) Frozen() bool { return f.cow != nil }

// Snapshot returns a copy-on-write copy of f. Handles are preserved
// exactly as with Clone — value, block and instruction IDs in the
// snapshot denote the corresponding entities — and the snapshot is
// semantically a deep copy: mutating either side never changes what
// the other reads. The difference is cost: only the arena chunks are
// copied up front; the flat slabs are shared until (unless) a mutator
// on this Func first writes one.
//
// The first Snapshot of an unfrozen f freezes it (see Freeze); that
// first call must be single-goroutine. Snapshots of an already-frozen
// f may be taken concurrently, which is how the batch driver's workers
// build their per-job functions from one shared master.
func (f *Func) Snapshot() *Func {
	f.Freeze()
	c := f.cow
	c.refs.Add(1)
	statSnapshots.Add(1)
	statSnapshotSlabAllocs.Add(int64(f.snapshotSlabCount()))
	nf := &Func{
		Name:       f.Name,
		Target:     f.Target,
		vals:       f.vals,
		ops:        f.ops,
		code:       f.code,
		numInstrs:  f.numInstrs,
		numBlocks:  f.numBlocks,
		cow:        c,
		sharedOps:  true,
		sharedCode: true,
	}
	// sharedEdges guards the per-block pred/succ arrays, which the chunk
	// copy below shares with the parent.
	nf.sharedEdges = true

	nf.instrChunks = make([]*instrChunk, len(f.instrChunks))
	for i, ch := range f.instrChunks {
		nc := new(instrChunk)
		*nc = *ch
		nf.instrChunks[i] = nc
	}
	for id := int32(0); id < nf.numInstrs; id++ {
		nf.instrChunks[id>>instrChunkShift][id&instrChunkMask].fn = nf
	}

	nf.blockChunks = make([]*blockChunk, len(f.blockChunks))
	for i, ch := range f.blockChunks {
		nc := new(blockChunk)
		*nc = *ch
		nf.blockChunks[i] = nc
	}
	for id := int32(0); id < nf.numBlocks; id++ {
		nf.blockChunks[id>>blockChunkShift][id&blockChunkMask].fn = nf
	}

	nf.blockList = make([]*Block, len(f.blockList))
	for i, b := range f.blockList {
		nf.blockList[i] = nf.Block(b.ID)
	}
	return nf
}

// snapshotSlabCount is the allocation budget of one Snapshot, the
// lazy-copy counterpart of cloneSlabCount: the Func header, the two
// chunk-pointer slices, one allocation per chunk, and the block list.
// No flat-slab or edge allocations — those are deferred.
func (f *Func) snapshotSlabCount() int {
	n := 1 // Func header
	if len(f.instrChunks) > 0 {
		n += 1 + len(f.instrChunks)
	}
	if len(f.blockChunks) > 0 {
		n += 1 + len(f.blockChunks)
	}
	if len(f.blockList) > 0 {
		n++
	}
	return n
}

// cowFault is the slow path shared by the cow* hooks: f is about to
// write shared storage. If f is the family's last reader the storage
// is adopted in place (no copy can be observed by anyone); otherwise
// the named slab is copied privately. Either way the relevant share
// flag is cleared before the caller's write proceeds.
func (f *Func) cowFault(slab int) {
	c := f.cow
	if c.refs.Load() == 1 {
		// Sole reader: every other Func of the family has materialized
		// (or was released). Adopt everything without copying.
		f.sharedOps, f.sharedCode, f.sharedEdges = false, false, false
		f.cow = nil
		c.refs.Add(-1)
		statCOWAdoptions.Add(1)
		return
	}
	if !f.cowTouched {
		f.cowTouched = true
		statCOWMaterializations.Add(1)
	}
	statCOWSlabCopies.Add(1)
	switch slab {
	case cowSlabOps:
		f.ops = append([]Operand(nil), f.ops...)
		f.sharedOps = false
	case cowSlabCode:
		f.code = append([]InstrID(nil), f.code...)
		f.sharedCode = false
	case cowSlabEdges:
		// Re-home every block's pred/succ lists into one private slab,
		// capacity-capped per block exactly like Clone's edge carve.
		nEdges := 0
		for id := int32(0); id < f.numBlocks; id++ {
			b := &f.blockChunks[id>>blockChunkShift][id&blockChunkMask]
			nEdges += len(b.preds) + len(b.succs)
		}
		edgeSlab := make([]BlockID, 0, nEdges)
		for id := int32(0); id < f.numBlocks; id++ {
			b := &f.blockChunks[id>>blockChunkShift][id&blockChunkMask]
			k := len(edgeSlab)
			edgeSlab = append(edgeSlab, b.preds...)
			b.preds = edgeSlab[k:len(edgeSlab):len(edgeSlab)]
			k = len(edgeSlab)
			edgeSlab = append(edgeSlab, b.succs...)
			b.succs = edgeSlab[k:len(edgeSlab):len(edgeSlab)]
		}
		f.sharedEdges = false
	}
	if !f.sharedOps && !f.sharedCode && !f.sharedEdges {
		// f no longer reads any mutable shared storage (the value slab
		// is append-only and capacity-frozen, so it needs no ref): leave
		// the family and let the last holder adopt for free.
		f.cow = nil
		c.refs.Add(-1)
	}
}

const (
	cowSlabOps = iota
	cowSlabCode
	cowSlabEdges
)

// cowOps, cowCode and cowEdges are the hooks the mutators call before
// writing the operand slab, the code slab, or a pred/succ array in
// place. They compile to a two-flag check on the exclusive-ownership
// fast path.
func (f *Func) cowOps() {
	if f.cow != nil && f.sharedOps {
		f.cowFault(cowSlabOps)
	}
}

func (f *Func) cowCode() {
	if f.cow != nil && f.sharedCode {
		f.cowFault(cowSlabCode)
	}
}

func (f *Func) cowEdges() {
	if f.cow != nil && f.sharedEdges {
		f.cowFault(cowSlabEdges)
	}
}

// Release drops f's membership in its copy-on-write family, declaring
// that f will never be read or mutated again. It lets the remaining
// holder adopt the shared storage for free on its next mutation
// instead of copying. Calling it is optional (an abandoned snapshot is
// simply garbage); using f after Release is a contract violation.
func (f *Func) Release() {
	if f.cow == nil {
		return
	}
	f.cow.refs.Add(-1)
	f.cow = nil
	f.sharedOps, f.sharedCode, f.sharedEdges = false, false, false
}

// ArenaChecksum returns an FNV-1a hash over the function's entire
// arena content: value metadata, operand slab, code slab, block spans
// and edge lists, and per-instruction fields. Two Funcs that are deep
// copies of each other hash identically; any single-byte divergence —
// in particular a copy-on-write aliasing bug where a write through one
// Func becomes visible through another — changes the sum. Used by
// faultinject.InjectCOWAliasing and the parallel-identity tests.
func (f *Func) ArenaChecksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	ws := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		w(uint64(len(s)))
	}
	ws(f.Name)
	for i := range f.vals {
		ws(f.vals[i].name)
		w(uint64(f.vals[i].kind))
	}
	for _, o := range f.ops {
		w(uint64(uint32(o.Val)))
		w(uint64(uint32(o.pin)))
	}
	for id := int32(0); id < f.numInstrs; id++ {
		in := &f.instrChunks[id>>instrChunkShift][id&instrChunkMask]
		w(uint64(in.op))
		w(uint64(in.Imm))
		ws(in.Callee)
		w(uint64(uint32(in.blk)))
		w(uint64(uint32(in.defOff))<<32 | uint64(uint32(in.defLen)))
		w(uint64(uint32(in.useOff))<<32 | uint64(uint32(in.useLen)))
	}
	for _, b := range f.blockList {
		w(uint64(uint32(b.ID)))
		ws(b.Name)
		w(uint64(b.LoopDepth))
		for i := int32(0); i < b.codeLen; i++ {
			w(uint64(uint32(f.code[b.codeOff+i])))
		}
		for _, p := range b.preds {
			w(uint64(uint32(p)))
		}
		for _, s := range b.succs {
			w(uint64(uint32(s)))
		}
	}
	return h
}
