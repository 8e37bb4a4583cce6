package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// exactBitmapBytes is the size of one group's predicted-exact bitmap:
// one bit per LPA slot in the 256-LPA group.
const exactBitmapBytes = addr.GroupSize / 8

// exactBits is a group's predicted-exact bitmap (LearnedFTL's accuracy
// bitmap, arXiv:2303.13226 §3.2). Bit i set means the table's *current*
// prediction for LPA groupBase+i is known to land exactly on the live
// page: it was verified against the true PPA the last time the slot was
// learned, repaired, relearned, or OOB-checked on a read. A set bit lets
// the device issue one trusted flash read with no OOB verification probe
// budget; a clear bit routes through the §3.5 window read. Bits are
// maintained only while the table's bitmap is enabled, but the field
// always travels in the group wire record (zeroed when the feature is
// off) so the record has one shape.
//
// The bitmap is controller working state, not part of the paper's
// mapping-table footprint: like the CRB owner index it is excluded from
// SizeBytes.
type exactBits [exactBitmapBytes]byte

func (b *exactBits) set(off uint8)       { b[off>>3] |= 1 << (off & 7) }
func (b *exactBits) clear(off uint8)     { b[off>>3] &^= 1 << (off & 7) }
func (b *exactBits) test(off uint8) bool { return b[off>>3]&(1<<(off&7)) != 0 }

// NoteRead records the device's OOB-verified read feedback for lpa's
// group: the table predicted `predicted`, the flash's reverse mapping
// proved the true page to be `actual`, and approx says whether the
// answering segment was approximate. With the bitmap on, a verified
// approximate hit sets the slot's exact bit and a miss clears it; exact
// translations and a disabled bitmap leave the group untouched, as do
// non-resident groups.
func (t *Table) NoteRead(lpa addr.LPA, predicted, actual addr.PPA, approx bool) {
	if !t.bitmapOn || !approx {
		return
	}
	g := t.lookupGroup(addr.Group(lpa))
	if g == nil {
		return
	}
	if actual == predicted {
		g.exact.set(addr.Offset(lpa))
	} else {
		g.exact.clear(addr.Offset(lpa))
	}
}

// ExactBits returns resident group id's predicted-exact bitmap; ok is
// false when the group is not resident.
func (t *Table) ExactBits(id addr.GroupID) (bits [exactBitmapBytes]byte, ok bool) {
	if g := t.lookupGroup(id); g != nil {
		return g.exact, true
	}
	return bits, false
}

// AuditExactBits verifies every set predicted-exact bit of every
// resident group against a ground-truth oracle: truth returns the live
// PPA of an LPA, or ok=false when the LPA is unmapped or its page was
// lost (such slots are skipped — the bitmap promises nothing about
// them). A set bit whose prediction is missing or disagrees with the
// oracle is a hard failure: the device would have trusted a wrong PPA
// without OOB verification. The walk is side-effect free and touches
// only resident groups (auditing must not fault pages in).
func (t *Table) AuditExactBits(truth func(addr.LPA) (addr.PPA, bool)) error {
	var err error
	t.eachGroup(func(id addr.GroupID, g *group) {
		if err != nil {
			return
		}
		base := addr.GroupBase(id)
		for off := 0; off < addr.GroupSize; off++ {
			if !g.exact.test(uint8(off)) {
				continue
			}
			lpa := base + addr.LPA(off)
			want, ok := truth(lpa)
			if !ok {
				continue
			}
			got, _, found := t.Lookup(lpa)
			if !found {
				err = fmt.Errorf("group %d: exact bit set for LPA %d but the table has no mapping", id, lpa)
				return
			}
			if got != want {
				err = fmt.Errorf("group %d: exact bit set for LPA %d but prediction %d != true PPA %d",
					id, lpa, got, want)
				return
			}
		}
	})
	return err
}
