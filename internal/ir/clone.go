package ir

// Clone returns a deep copy of f. Handles are preserved — value, block
// and instruction IDs in the clone denote the corresponding entities —
// so analyses computed on the clone are index-compatible with the
// original. The experiment pipelines clone the post-SSA function once
// per algorithm so every algorithm sees the same input, the batch driver
// clones once per cell run, and laocd clones the cached decode once per
// request — which makes Clone a malloc and memory-bandwidth hot spot.
//
// Because every cross-reference in the SoA representation is a handle
// (position-independent), cloning is a handful of slab copies:
//
//   - the value, operand and code slabs are copied verbatim (memcpy);
//   - the instruction and block arena chunks are copied per chunk,
//     followed by a pointer-free fix-up of the fn back-references;
//   - the pred/succ edge lists are carved out of one shared slab.
//
// The allocation count is O(arena chunks), independent of the number of
// values, instructions or operands — pinned by TestCloneAllocs.
// The Target is immutable after NewFunc and holds only handles, so it is
// shared, not copied.
func (f *Func) Clone() *Func {
	statClones.Add(1)
	statCloneSlabAllocs.Add(int64(f.cloneSlabCount()))
	nf := &Func{
		Name:      f.Name,
		Target:    f.Target,
		vals:      append([]valData(nil), f.vals...),
		ops:       append([]Operand(nil), f.ops...),
		code:      append([]InstrID(nil), f.code...),
		numInstrs: f.numInstrs,
		numBlocks: f.numBlocks,
	}

	nf.instrChunks = make([]*instrChunk, len(f.instrChunks))
	for i, c := range f.instrChunks {
		nc := new(instrChunk)
		*nc = *c
		nf.instrChunks[i] = nc
	}
	for id := int32(0); id < nf.numInstrs; id++ {
		nf.instrChunks[id>>instrChunkShift][id&instrChunkMask].fn = nf
	}

	nf.blockChunks = make([]*blockChunk, len(f.blockChunks))
	for i, c := range f.blockChunks {
		nc := new(blockChunk)
		*nc = *c
		nf.blockChunks[i] = nc
	}
	// Fix fn back-references and re-home the edge lists: the chunk copy
	// shared the pred/succ backing arrays with the original, and a later
	// append on either side could write through shared capacity. Carve
	// clone-owned copies out of one slab, capacity-capped so a later
	// append on any block reallocates away from its neighbour.
	nEdges := 0
	for id := int32(0); id < nf.numBlocks; id++ {
		b := &nf.blockChunks[id>>blockChunkShift][id&blockChunkMask]
		nEdges += len(b.preds) + len(b.succs)
	}
	edgeSlab := make([]BlockID, 0, nEdges)
	for id := int32(0); id < nf.numBlocks; id++ {
		b := &nf.blockChunks[id>>blockChunkShift][id&blockChunkMask]
		b.fn = nf
		k := len(edgeSlab)
		edgeSlab = append(edgeSlab, b.preds...)
		b.preds = edgeSlab[k:len(edgeSlab):len(edgeSlab)]
		k = len(edgeSlab)
		edgeSlab = append(edgeSlab, b.succs...)
		b.succs = edgeSlab[k:len(edgeSlab):len(edgeSlab)]
	}

	nf.blockList = make([]*Block, len(f.blockList))
	for i, b := range f.blockList {
		nf.blockList[i] = nf.Block(b.ID)
	}
	return nf
}

// cloneSlabCount returns the number of heap allocations a Clone of f
// performs (the slab budget TestCloneAllocs pins): the Func header, the
// three flat slabs, the two chunk-pointer slices, one chunk allocation
// each, the edge slab and the block list.
func (f *Func) cloneSlabCount() int {
	n := 1 // Func header
	if len(f.vals) > 0 {
		n++
	}
	if len(f.ops) > 0 {
		n++
	}
	if len(f.code) > 0 {
		n++
	}
	if len(f.instrChunks) > 0 {
		n += 1 + len(f.instrChunks)
	}
	if len(f.blockChunks) > 0 {
		n += 1 + len(f.blockChunks)
	}
	nEdges := 0
	for id := int32(0); id < f.numBlocks; id++ {
		b := &f.blockChunks[id>>blockChunkShift][id&blockChunkMask]
		nEdges += len(b.preds) + len(b.succs)
	}
	if nEdges > 0 {
		n++
	}
	if len(f.blockList) > 0 {
		n++
	}
	return n
}

// RestoreFrom replaces f's entire contents — blocks, values, target —
// with those of g, which must be a Clone of f (or of an ancestor state
// of f). g is consumed: its slabs and arenas become owned by f and g
// must not be used afterwards. The checked pipeline uses this to roll a
// function back to its pre-pipeline snapshot before retrying through
// the naive fallback translation, so the caller's *Func pointer stays
// valid across the retry. Copy-back is a straight move of the slab
// headers plus a pointer-free fn fix-up — no per-entity work.
func (f *Func) RestoreFrom(g *Func) {
	statRestores.Add(1)
	// Transfer g's copy-on-write membership to f: g is consumed, so its
	// family ref moves over as-is, while f's previous membership (if any)
	// is released — f's old storage is being discarded.
	if old := f.cow; old != nil {
		old.refs.Add(-1)
	}
	f.cow = g.cow
	f.sharedOps, f.sharedCode, f.sharedEdges = g.sharedOps, g.sharedCode, g.sharedEdges
	f.cowTouched = g.cowTouched
	f.Name = g.Name
	f.Target = g.Target
	f.vals = g.vals
	f.ops = g.ops
	f.code = g.code
	f.instrChunks = g.instrChunks
	f.numInstrs = g.numInstrs
	f.blockChunks = g.blockChunks
	f.numBlocks = g.numBlocks
	f.blockList = g.blockList
	for id := int32(0); id < f.numInstrs; id++ {
		f.instrChunks[id>>instrChunkShift][id&instrChunkMask].fn = f
	}
	for id := int32(0); id < f.numBlocks; id++ {
		f.blockChunks[id>>blockChunkShift][id&blockChunkMask].fn = f
	}
	// The function's code just changed wholesale: invalidate memoized
	// analyses. The generations stay monotonic (bump, not copy) so stale
	// entries recorded under earlier generations can never match again.
	f.generation++
	f.cfgGeneration++
	f.analyses = nil
}
