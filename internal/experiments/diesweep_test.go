package experiments

import "testing"

// TestCoreSweep sweeps the host queue count of the die sweep's
// issue-time replay at micro scale on one geometry and checks the
// properties the bench-level determinism gate relies on: every queue
// count serves the whole trace and finishes with the same state digest,
// since queues move when flash work runs, never what the device holds.
func TestCoreSweep(t *testing.T) {
	const seed = 5
	s := NewSuite(MicroScale(), seed)
	var first DieSweepRun
	for i, queues := range []int{1, 2, 4} {
		runs, table, err := s.DieSweep(DieSweepSpec{Dies: []int{2}, Workers: queues})
		if err != nil {
			t.Fatalf("seed %d q=%d: %v", seed, queues, err)
		}
		t.Logf("seed %d q=%d:\n%s", seed, queues, table)
		if len(runs) != 1 {
			t.Fatalf("seed %d q=%d: %d runs, want 1", seed, queues, len(runs))
		}
		r := runs[0]
		if r.Result.Requests != s.Scale.Requests {
			t.Errorf("seed %d q=%d: served %d requests, want %d", seed, queues, r.Result.Requests, s.Scale.Requests)
		}
		if r.Result.IOPS() <= 0 {
			t.Errorf("seed %d q=%d: non-positive IOPS", seed, queues)
		}
		if i == 0 {
			first = r
			continue
		}
		if r.Digest != first.Digest {
			t.Errorf("seed %d q=%d: state digest %016x diverges from q=1's %016x",
				seed, queues, r.Digest, first.Digest)
		}
	}
}

// TestCoreSweepUnknownWorkload rejects bad workload names instead of
// panicking deep in the generator.
func TestCoreSweepUnknownWorkload(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	if _, _, err := s.DieSweep(DieSweepSpec{Workload: "no-such-workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
