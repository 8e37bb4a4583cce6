package ssd

import (
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/dftl"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/sftl"
)

// costAudit totals every ftl.Cost a wrapped scheme hands the device. A
// Cost names one translation page per operation by construction, so
// the totals are what is left to check.
type costAudit struct {
	reads, writes int
}

func (a *costAudit) check(c ftl.Cost) ftl.Cost {
	a.reads += len(c.ReadIDs)
	a.writes += len(c.WriteIDs)
	return c
}

type auditedDFTL struct {
	*dftl.DFTL
	a *costAudit
}

func (s auditedDFTL) Translate(l addr.LPA) (ftl.Translation, bool) {
	tr, ok := s.DFTL.Translate(l)
	s.a.check(tr.Cost)
	return tr, ok
}
func (s auditedDFTL) Commit(p []addr.Mapping) ftl.Cost { return s.a.check(s.DFTL.Commit(p)) }
func (s auditedDFTL) Maintain(n uint64) ftl.Cost       { return s.a.check(s.DFTL.Maintain(n)) }

type auditedSFTL struct {
	*sftl.SFTL
	a *costAudit
}

func (s auditedSFTL) Translate(l addr.LPA) (ftl.Translation, bool) {
	tr, ok := s.SFTL.Translate(l)
	s.a.check(tr.Cost)
	return tr, ok
}
func (s auditedSFTL) Commit(p []addr.Mapping) ftl.Cost { return s.a.check(s.SFTL.Commit(p)) }
func (s auditedSFTL) Maintain(n uint64) ftl.Cost       { return s.a.check(s.SFTL.Maintain(n)) }

type auditedLeaFTL struct {
	*leaftl.Scheme
	a *costAudit
}

func (s auditedLeaFTL) Translate(l addr.LPA) (ftl.Translation, bool) {
	tr, ok := s.Scheme.Translate(l)
	s.a.check(tr.Cost)
	return tr, ok
}
func (s auditedLeaFTL) Commit(p []addr.Mapping) ftl.Cost { return s.a.check(s.Scheme.Commit(p)) }
func (s auditedLeaFTL) Maintain(n uint64) ftl.Cost       { return s.a.check(s.Scheme.Maintain(n)) }
func (s auditedLeaFTL) CommitGC(p []addr.Mapping) (ftl.Cost, int) {
	c, n := s.Scheme.CommitGC(p)
	return s.a.check(c), n
}

// TestCostNamesEveryMetaOp runs DFTL, SFTL and the journaled full-preset
// LeaFTL through the budgeted churn and checks that the Costs they
// return name translation-page reads and writes.
func TestCostNamesEveryMetaOp(t *testing.T) {
	cfg := journalChurnConfig()
	for name, wrap := range map[string]func(*costAudit) ftl.Scheme{
		"DFTL": func(a *costAudit) ftl.Scheme { return auditedDFTL{dftl.New(cfg.Flash.PageSize, 1<<20), a} },
		"SFTL": func(a *costAudit) ftl.Scheme { return auditedSFTL{sftl.New(cfg.Flash.PageSize, 1<<20), a} },
		"LeaFTL full": func(a *costAudit) ftl.Scheme {
			return auditedLeaFTL{journalChurnScheme(cfg, leaftl.WithExactBitmap()), a}
		},
	} {
		t.Run(name, func(t *testing.T) {
			a := &costAudit{}
			journalChurn(t, newTestDevice(t, cfg, wrap(a)))
			if a.reads == 0 || a.writes == 0 {
				t.Errorf("churn charged %d translation-page reads and %d writes, want both > 0", a.reads, a.writes)
			}
		})
	}
}
