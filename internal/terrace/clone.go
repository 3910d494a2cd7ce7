package terrace

// Clone returns an independent Terrace in the same state: the same agile
// tree, mappings, lazily maintained lanes, caches and undo stack, so the copy
// answers every query and replays every path exactly as the original would
// from here on. Building a state costs New once; every further private copy
// of it (one per worker, paper Sec. III-A) costs a few block copies.
//
// Shared with the original, and never written after New: the taxon
// universe, the constraint trees with their LCA indices and leaf sets, the
// missing-taxon list and the taxon→constraint indices. Everything the search
// mutates is copied, capacity included, into one slab per element type. The
// traversal scratch comes along (stamps and marks must stay consistent with
// each other); the query buffers, which hold nothing between operations and
// may alias the original's lanes, start empty.
//
// Clone only reads the original, so any number of goroutines may clone one
// Terrace at once as long as none of them mutates it.
func (tr *Terrace) Clone() *Terrace {
	c := *tr
	c.store = nil // a clone owns no storage: its Release does nothing
	c.agile = tr.agile.Clone()
	c.dfsBuf, c.pendBuf, c.rowsBuf = nil, nil, nil

	states := make([]constraintState, len(tr.constraints))
	c.constraints = make([]*constraintState, len(tr.constraints))
	var nCE, nPre int
	for i, cs := range tr.constraints {
		states[i] = *cs
		c.constraints[i] = &states[i]
		nCE += cap(cs.cedges)
		nPre += cap(cs.pre)
	}
	ces := make([]cedge, nCE)
	pre := make([]uint64, nPre)
	for _, cs := range c.constraints {
		cs.s = cs.s.Clone()
		cs.cedges = dup(&ces, cs.cedges)
		cs.pre = dup(&pre, cs.pre)
	}

	n32 := 0
	tr.int32Slices(func(p *[]int32) { n32 += cap(*p) })
	i32 := make([]int32, n32)
	c.int32Slices(func(p *[]int32) { *p = dup(&i32, *p) })

	c.pendOK = append([]bool(nil), tr.pendOK...)
	c.pendListed = append([]bool(nil), tr.pendListed...)

	// The frames beyond the current depth are empty but keep their capacity,
	// like every other slice that grows with the agile tree.
	frames := tr.undo[:cap(tr.undo)]
	nU := 0
	for i := range frames {
		nU += cap(frames[i].cs)
	}
	us := make([]cUndo, nU)
	c.undo = make([]undoFrame, len(frames))
	for i, f := range frames {
		if i >= len(tr.undo) {
			f = undoFrame{cs: f.cs[:0]}
		}
		f.cs = dup(&us, f.cs)
		c.undo[i] = f
	}
	c.undo = c.undo[:len(tr.undo)]
	return &c
}

// dup copies s, keeping its capacity, into the next piece of slab.
func dup[T any](slab *[]T, s []T) []T {
	d := carve(slab, len(s), cap(s))
	copy(d, s)
	return d
}

// int32Slices calls f on every []int32 of the state that changes after New
// or belongs to one Terrace alone — what Clone must copy. The
// taxon→constraint indices are immutable and shared instead.
func (tr *Terrace) int32Slices(f func(*[]int32)) {
	for _, cs := range tr.constraints {
		f(&cs.cnt)
		f(&cs.m)
		f(&cs.target)
		f(&cs.proj)
		f(&cs.dir)
		f(&cs.pending)
		f(&cs.pendIdx)
	}
	f(&tr.mark)
	f(&tr.parentV)
	f(&tr.parentE)
	f(&tr.rootedV)
	f(&tr.rootedE)
	f(&tr.moveLog)
	f(&tr.tgLog)
	f(&tr.pathLog)
	f(&tr.projLog)
	f(&tr.pendCnt)
	f(&tr.cacheLive)
	f(&tr.cacheIdx)
}
