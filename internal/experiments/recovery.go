package experiments

import (
	"fmt"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// runRecovery runs a workload slice on a fresh device under the named
// mapping scheme (demand-paged when budget > 0; see budgeted), crashes
// it without a final flush, and recovers and verifies it
// (recoverAndVerify). Returns one report row.
func (s *Suite) runRecovery(name, scheme string, budget float64) ([]string, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("recovery: unknown workload %q", name)
	}
	cfg, err := budgeted(s.simConfig(cfgFor(p)), budget)
	if err != nil {
		return nil, err
	}
	sch := s.newScheme(scheme, 0, cfg)
	dev, err := ssd.New(cfg, sch)
	if err != nil {
		return nil, err
	}
	logical := dev.LogicalPages()
	if err := warmPages(dev, p.Footprint(logical)); err != nil {
		return nil, err
	}
	label := sch.Name()
	if budget > 0 {
		// The replay pages groups on demand, so recovery exercises the
		// GMD-restore path, not just the OOB re-learn.
		label = fmt.Sprintf("%s@%.3g%%", label, budget*100)
	}
	reqs := p.Generate(logical, s.Scale.Requests/4, s.Seed)
	if err := trace.Replay(dev, reqs); err != nil {
		return nil, err
	}

	// Crash: no flush, all controller RAM lost.
	at := snapshotAtCrash(dev)
	rep, verified, err := recoverAndVerify(dev, s.newScheme(scheme, 0, cfg), at)
	if err != nil {
		return nil, fmt.Errorf("recovery %s/%s: %w", name, label, err)
	}
	return []string{
		p.Name,
		label,
		fmt.Sprintf("%d", rep.BlocksScanned),
		fmt.Sprintf("%d", rep.PagesScanned),
		fmt.Sprintf("%d", rep.MappingsRebuilt),
		fmt.Sprintf("%d", rep.MappingsRestored),
		rep.ScanTime.String(),
		fmt.Sprintf("%d", verified),
		fmt.Sprintf("%d", len(at.buffered)),
	}, nil
}

// crashSnapshot is the oracle a recovery is diffed against: the truth
// state at the instant of the crash.
type crashSnapshot struct {
	tok  []uint64
	lost []bool
	// buffered are the LPAs dirty in the write buffer, the only legal
	// loss on a drive without power-loss protection.
	buffered []addr.LPA
}

// snapshotAtCrash captures dev's truth state; call it at the crash.
func snapshotAtCrash(dev *ssd.Device) crashSnapshot {
	tok, lost := dev.TruthSnapshot()
	return crashSnapshot{tok: tok, lost: lost, buffered: dev.BufferedLPAs()}
}

// recoverAndVerify is the step after every injected crash: full
// firmware recovery of dev into the fresh scheme sch (all controller
// RAM is gone), a CheckInvariants audit, a differential diff of the
// rebuilt state against the at-crash snapshot (verify), and a sampled
// read-back through the host path, where the device self-checks payload
// tokens and prediction windows. It returns the recovery report and the
// number of LPAs verified.
func recoverAndVerify(dev *ssd.Device, sch ftl.Scheme, at crashSnapshot) (ssd.RecoveryReport, int, error) {
	rep, err := dev.Recover(sch)
	if err != nil {
		return rep, 0, fmt.Errorf("recover: %w", err)
	}
	if err := dev.CheckInvariants(); err != nil {
		return rep, 0, err
	}
	postTok, postLost := dev.TruthSnapshot()
	verified, err := at.verify(postTok, postLost)
	if err != nil {
		return rep, verified, err
	}
	for l := 0; l < len(postTok); l += max(len(postTok)/256, 1) {
		if postTok[l] == 0 {
			continue
		}
		if _, err := dev.Read(addr.LPA(l), 1); err != nil {
			return rep, verified, fmt.Errorf("post-recovery read of LPA %d: %w", l, err)
		}
	}
	return rep, verified, nil
}

// verify diffs a recovered truth state against the snapshot. With
// faults off nothing may be lost, and every LPA outside the write
// buffer must come back holding exactly its newest data. It returns the
// number of LPAs checked.
func (at crashSnapshot) verify(postTok []uint64, postLost []bool) (int, error) {
	buffered := make(map[addr.LPA]bool, len(at.buffered))
	for _, l := range at.buffered {
		buffered[l] = true
	}
	verified := 0
	for l := range postTok {
		lpa := addr.LPA(l)
		if buffered[lpa] {
			continue // unflushed at crash; any older state is legal
		}
		if postLost[l] && !at.lost[l] {
			return verified, fmt.Errorf("LPA %d lost with faults off", lpa)
		}
		if postTok[l] != at.tok[l] {
			return verified, fmt.Errorf("LPA %d recovered token %#x, want %#x (stale or corrupt copy resurrected)",
				lpa, postTok[l], at.tok[l])
		}
		verified++
	}
	return verified, nil
}
