package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// AuditExact verifies what a verifying table promises the read path
// (LookupResult.Exact): every live slot of a resident group that it
// answers from an approximate segment predicts the slot's true PPA.
// truth returns the live PPA of an LPA, or ok=false when the LPA is
// unmapped or its page was lost (such slots are skipped). A wrong
// approximate answer is a hard failure: the device would trust it
// without OOB verification. A table that does not verify promises
// nothing, so its audit is clean. It sweeps the levels directly, so it
// neither reads nor fills a group's answer memo (memo.go); it changes no
// group and touches only resident ones (auditing must not fault pages
// in).
func (t *Table) AuditExact(truth func(addr.LPA) (addr.PPA, bool)) error {
	if !t.verifying {
		return nil
	}
	out := &t.sweepOut
	for id, g := range t.groups {
		if g == nil {
			continue
		}
		base := addr.GroupBase(addr.GroupID(id))
		t.sweep(g, base, out[:])
		for off, v := range out {
			if v&memoOK == 0 || v&memoApprox == 0 {
				continue
			}
			lpa := base + addr.LPA(off)
			if want, ok := truth(lpa); ok && addr.PPA(v) != want {
				return fmt.Errorf("group %d: LPA %d answered approximately with PPA %d, true PPA %d",
					id, lpa, addr.PPA(v), want)
			}
		}
	}
	return nil
}
