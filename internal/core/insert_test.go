package core

// insert places one learned segment at the top level of its group,
// merging and displacing overlapped victims (Algorithm 1, seg_update),
// and rebuilds the group if that pushed it past a trigger: a commit of
// one hand-built piece. It drops the group's answer memo.
func (t *Table) insert(ls Learned) {
	ls.Seg.prime() // hand-built segments; resident ones are always primed
	g := t.group(ls.Seg.Group())
	before := g.footprint()
	g.memo.changed()
	t.openTop(g)
	t.mergePiece(g, &ls)
	t.closeTop(g)
	t.maybeRebuild(ls.Seg.Group())
	t.bytes += g.footprint() - before
}
