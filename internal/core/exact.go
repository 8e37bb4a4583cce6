package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// AuditExact checks every answer of every resident group that the read
// path trusts without OOB verification — every accurate answer — against
// the live PPA.
// truth returns the live PPA of an LPA, or ok=false when the LPA is
// unmapped or its page was lost (such slots are skipped). A wrong
// trusted answer is a hard failure: the device would read the wrong
// page, and the read path would only catch it on the next read of that
// LPA. It sweeps the levels directly, so it neither reads nor fills a
// group's answer memo (memo.go); it changes no group and touches only
// resident ones (auditing must not fault pages in).
func (t *Table) AuditExact(truth func(addr.LPA) (addr.PPA, bool)) error {
	out := &t.sweepOut
	for id, g := range t.groups {
		if g == nil {
			continue
		}
		base := addr.GroupBase(addr.GroupID(id))
		t.sweep(g, base, out[:])
		for off, v := range out {
			if v&memoOK == 0 || v&memoApprox != 0 {
				continue
			}
			lpa := base + addr.LPA(off)
			if want, ok := truth(lpa); ok && addr.PPA(v) != want {
				return fmt.Errorf("group %d: LPA %d answered with PPA %d, live PPA %d",
					id, lpa, addr.PPA(v), want)
			}
		}
	}
	return nil
}
