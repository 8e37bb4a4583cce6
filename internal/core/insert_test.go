package core

// insert places one learned segment at the top level of its group,
// merging and displacing overlapped victims (Algorithm 1, seg_update),
// and rebuilds the group if that pushed it past a trigger: a commit of
// one hand-built piece. A verifying table answers every approximate
// segment as exact, so it refuses an approximate piece nobody verified.
func (t *Table) insert(ls Learned) {
	if t.verifying && !ls.Seg.Accurate() {
		panic("core: insert of an unverified approximate segment into a verifying table")
	}
	t.gen++
	ls.Seg.prime() // hand-built segments; resident ones are always primed
	g := t.group(ls.Seg.Group())
	t.openTop(g)
	t.mergePiece(g, &ls)
	t.closeTop(g)
	t.maybeRebuild(ls.Seg.Group())
}
