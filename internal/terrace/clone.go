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
// mutates is copied, capacity included, into storage taken like New's (see
// Release): one slab per element type. The traversal scratch comes along
// (stamps and marks must stay consistent with each other); the query
// buffers, which hold nothing between operations and may alias the
// original's lanes, start empty, and so does the overlay: the original's
// bookings are not its state.
//
// Clone only reads the original, so any number of goroutines may clone one
// Terrace at once as long as none of them mutates it.
func (tr *Terrace) Clone() *Terrace {
	c := *tr
	st := takeStorage()
	c.store = st
	st.agile = tr.agile.CopyInto(st.agile)
	c.agile = st.agile
	c.dfsBuf, c.pendBuf, c.rowsBuf = nil, nil, nil
	c.ov = Overlay{}

	nc := len(tr.constraints)
	st.states = take(st.states, nc)
	st.cons = take(st.cons, nc)
	st.sets = take(st.sets, nc)
	c.constraints = st.cons
	var nCE, nPre int
	for i, cs := range tr.constraints {
		st.states[i] = *cs
		c.constraints[i] = &st.states[i]
		nCE += cap(cs.cedges)
		nPre += cap(cs.pre)
	}
	st.ces = take(st.ces, nCE)
	st.pre = take(st.pre, nPre)
	ces, pre := st.ces, st.pre
	for i, cs := range c.constraints {
		cs.s.CopyInto(&st.sets[i])
		cs.s = &st.sets[i]
		cs.cedges = dup(&ces, cs.cedges)
		cs.pre = dup(&pre, cs.pre)
	}

	n32 := 0
	tr.int32Slices(func(p *[]int32) { n32 += cap(*p) })
	st.i32 = take(st.i32, n32)
	i32 := st.i32
	c.int32Slices(func(p *[]int32) { *p = dup(&i32, *p) })
	c.moveLog = append(st.logs[0][:0], tr.moveLog...)
	c.tgLog = append(st.logs[1][:0], tr.tgLog...)
	c.pathLog = append(st.logs[2][:0], tr.pathLog...)
	c.projLog = append(st.logs[3][:0], tr.projLog...)

	n := len(tr.pendOK)
	st.flags = take(st.flags, 2*n)
	c.pendOK, c.pendListed = st.flags[:n:n], st.flags[n:]
	copy(c.pendOK, tr.pendOK)
	copy(c.pendListed, tr.pendListed)

	// One frame per missing taxon, as New lays them out: those beyond the
	// current depth are empty but keep their capacity, like every other
	// slice that grows with the agile tree.
	frames := tr.undo[:len(tr.missing)]
	nU := 0
	for i := range frames {
		nU += cap(frames[i].cs)
	}
	st.cu = take(st.cu, nU)
	st.undo = take(st.undo, len(frames))
	us := st.cu
	for i, f := range frames {
		if i >= len(tr.undo) {
			f = undoFrame{cs: f.cs[:0]}
		}
		f.cs = dup(&us, f.cs)
		st.undo[i] = f
	}
	c.undo = st.undo[:len(tr.undo):len(frames)]
	return &c
}

// dup copies s, keeping its capacity, into the next piece of slab.
func dup[T any](slab *[]T, s []T) []T {
	d := carve(slab, len(s), cap(s))
	copy(d, s)
	return d
}

// int32Slices calls f on every []int32 of the state that changes after New
// or belongs to one Terrace alone — what Clone must copy — but the undo logs,
// which grow by doubling in storage of their own. The taxon→constraint
// indices are immutable and shared instead.
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
	f(&tr.pendCnt)
	f(&tr.cacheLive)
	f(&tr.cacheIdx)
}
