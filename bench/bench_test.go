package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"leaftl/internal/ftl"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 500, 500}, {99, 990, 10}, {99.9, 999, 1}, {100, 1000, 0}, {0.01, 1, 999}} {
		got, beyond := percentile(s, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(%v) = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if v, b := percentile(nil, 99); v != 0 || b != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, b)
	}
}

func TestMinOfSlices(t *testing.T) {
	var a, b, c [slices]int64
	for s := 0; s < slices; s++ {
		a[s], b[s], c[s] = 100, 100, 100
	}
	a[3], b[3], c[3], b[7] = 900, 500, 120, 500 // disturbed in different places
	want := int64(slices*100 + 20)              // slice 3 was never clean: its best is 120
	if got := minOfSlices([][slices]int64{a, b, c}); got != want {
		t.Errorf("minOfSlices = %d, want %d", got, want)
	}
	if got := minOfSlices([][slices]int64{a}); got != sumSlices(a) {
		t.Errorf("one repeat: minOfSlices = %d, want its sum %d", got, sumSlices(a))
	}
}

func TestArrivalStampingDeterministic(t *testing.T) {
	mk := func(seed int64) []trace.Request {
		reqs := make([]trace.Request, 5000)
		workload.ArrivalModel{IOPS: 8000}.Stamp(reqs, seed)
		return reqs
	}
	a, b, c := mk(7), mk(7), mk(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed stamped different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds stamped the same arrivals")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrival %d goes backwards", i)
		}
	}
	// Mean rate within 5% of the offered one.
	if got := float64(len(a)) / a[len(a)-1].Arrival.Seconds(); math.Abs(got-8000)/8000 > 0.05 {
		t.Errorf("stamped rate %.0f/s, want about 8000/s", got)
	}
	// Chunks of one stream never repeat, and a stream repeats itself.
	s1 := &source{gen: zipfRead, logical: 4096, seed: 3, stream: streamSat}
	s2 := &source{gen: zipfRead, logical: 4096, seed: 3, stream: streamSat}
	x, y := s1.next(100), s1.next(100)
	if reflect.DeepEqual(x, y) {
		t.Error("two chunks of one stream are the same requests")
	}
	if !reflect.DeepEqual(x, s2.next(100)) {
		t.Error("the same chunk of the same stream differs between two sources")
	}
}

// tinyRig is an aged tiny device on the given workload.
func tinyRig(t *testing.T, name string) *rig {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	r, err := setup(sp, scales["tiny"], fullScheme, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The benchmark's own replay loop must produce the schedule of
// trace.ReplayOpenLoop: same device state, same percentiles to within one
// bucket of that replay's histogram.
func TestLoopAgreesWithReplayOpenLoop(t *testing.T) {
	const n = 4000
	stamp := map[string]func([]trace.Request){
		"closed": func(reqs []trace.Request) {
			for i := range reqs {
				reqs[i].Arrival = time.Duration(i)
			}
		},
		"open": func(reqs []trace.Request) { workload.ArrivalModel{IOPS: 2000}.Stamp(reqs, 5) },
	}
	for name, st := range stamp {
		ours, theirs := tinyRig(t, "hm-mix"), tinyRig(t, "hm-mix")
		reqs := ours.source(ours.sp.gen, streamSat).next(n)
		st(reqs)

		l := newLoop(ours.dev, true, nil)
		if err := l.run(reqs); err != nil {
			t.Fatal(err)
		}
		want, err := trace.ReplayOpenLoop(theirs.dev, reqs, trace.OpenLoopConfig{Queues: queues})
		if err != nil {
			t.Fatal(err)
		}
		if digest(ours.dev) != digest(theirs.dev) {
			t.Errorf("%s: device state differs from ReplayOpenLoop's", name)
		}
		if l.end != want.Elapsed {
			t.Errorf("%s: makespan %v, ReplayOpenLoop %v", name, l.end, want.Elapsed)
		}
		all := sortedUs(l.reads, l.writes)
		for _, p := range []float64{50, 99} {
			got, _ := percentile(all, p)
			ref := want.Latency.Percentile(p) * 1e6
			// One bucket of the reference histogram is a factor of 10^(1/96).
			if bucket := math.Pow(10, 1.0/96); got > ref*bucket || got < ref/bucket {
				t.Errorf("%s: p%v = %.3f us, ReplayOpenLoop's histogram says %.3f us", name, p, got, ref)
			}
		}
	}
}

// The wrapper must offer the device exactly the capabilities the wrapped
// scheme offers: one more and the device would drive a feature the scheme
// does not have, one fewer and the traced device would behave differently.
func TestWrapperKeepsCapabilities(t *testing.T) {
	for _, name := range append([]string{fullScheme}, companionSchemes...) {
		real := newScheme(name, 1<<20)
		wrapped, err := newTracer(16).wrap(real)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got, want := capabilities(wrapped), capabilities(real); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapper offers %v, scheme offers %v", name, got, want)
		}
		if wrapped.Name() != real.Name() {
			t.Errorf("%s: wrapper is named %q", name, wrapped.Name())
		}
	}
	if caps := capabilities(newScheme(fullScheme, 0)); len(caps) != 9 {
		t.Errorf("the full scheme offers %v; the wrapper was written for nine capabilities", caps)
	}
	var _ ftl.Scheme = (*tracedPlain)(nil)
	var _ fullCaps = (*tracedFull)(nil)
}

// BENCHMARK.json must name exactly what the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	// Compared as JSON: a metric's clock is the program's own note and is
	// not in the file.
	got, _ := json.Marshal(onDisk)
	want, _ := json.Marshal(describe())
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from bench -describe; regenerate it with: bash bench/run.sh -describe")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", sp.name, len(sp.why))
		}
	}
}

// All four workloads at tiny scale: every named metric present, finite and
// with a unit; the acceptance conditions that hold at any scale hold.
func TestTinySmoke(t *testing.T) {
	sc := scales["tiny"]
	dir := t.TempDir()
	for _, sp := range specs {
		un := runUntraced(sp, sc, 1, 2)
		if !un.Correct {
			t.Fatalf("%s untraced: %s", sp.name, un.Error)
		}
		if m := missing(un); len(m) > 0 {
			t.Errorf("%s untraced: missing %v", sp.name, m)
		}
		for _, d := range endToEnd {
			if un.Metrics[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", sp.name, d.Name)
			}
		}
		if len(un.Digests) != repeats+1 {
			t.Errorf("%s: %d digests, want one per repeat and one after mid", sp.name, len(un.Digests))
		}
		if line, err := driverLine(un); err != nil || !json.Valid(line) {
			t.Errorf("%s: driver line %s: %v", sp.name, line, err)
		}

		tr := runTraced(sp, sc, 1, 2, dir)
		if !tr.Correct {
			t.Fatalf("%s traced: %s", sp.name, tr.Error)
		}
		if m := missing(tr); len(m) > 0 {
			t.Errorf("%s traced: missing %v", sp.name, m)
		}
		sum := 0.0
		for _, n := range []string{"attr.queue_wait_share", "attr.svc_gc_share", "attr.svc_flush_share", "attr.svc_mapfault_share", "attr.svc_plain_share"} {
			sum += tr.Metrics[n].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: attribution shares sum to %v", sp.name, sum)
		}
		faults := tr.Metrics["pager.faults_per_kreq"].Value
		if paged := sp.name == "scan-update-paged"; paged != (faults > 0) {
			t.Errorf("%s: pager.faults_per_kreq = %v", sp.name, faults)
		}
		var tf traceFile
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", sp.name, err)
		}
		for _, s := range tf.Spans {
			if s.End < s.Start || (s.Parent >= 0 && tf.Spans[s.Parent].Req != s.Req) {
				t.Fatalf("%s: span %+v is malformed", sp.name, s)
			}
		}
		if len(tf.Spans) == 0 {
			t.Errorf("%s: trace file holds no spans", sp.name)
		}
	}
}

// compareSets applies direction and bound, and calls a metric whose
// repeats disagree by more than its bound unresolved.
func TestCompareVerdicts(t *testing.T) {
	b := benchmarkFile{
		Workloads: []workloadDesc{{Name: "w"}},
		EndToEnd: []def{
			{Name: "up", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "down", Unit: "s", Better: "lower", Bound: 0.10},
			{Name: "noisy", Unit: "s", Better: "lower", Bound: 0.10},
		},
	}
	mk := func(repeat string, up, down, noisy float64, failed int) set {
		return set{Seed: 1, Repeat: repeat, Runs: []*result{{Workload: "w", Attempted: 100, Failed: failed, Metrics: metricSet{
			"up": {Value: up}, "down": {Value: down}, "noisy": {Value: noisy}}}}}
	}
	old := []set{mk("a", 100, 10, 10, 0), mk("b", 101, 10, 13, 0)}
	rows, regressed := compareSets(b, old, []set{mk("a", 95, 10.5, 11, 0)}, false)
	want := map[string]string{"up": verdictOK, "down": verdictOK, "noisy": verdictUnresolved, "failed_frac": verdictOK}
	for _, r := range rows {
		if r.verdict != want[r.metric] {
			t.Errorf("%s: %s, want %s", r.metric, r.verdict, want[r.metric])
		}
	}
	if regressed {
		t.Error("a 5% change inside a 10% bound counted as a regression")
	}
	rows, regressed = compareSets(b, old, []set{mk("a", 80, 12, 11, 1)}, false)
	want = map[string]string{"up": verdictRegression, "down": verdictRegression, "noisy": verdictUnresolved, "failed_frac": verdictRegression}
	for _, r := range rows {
		if r.verdict != want[r.metric] {
			t.Errorf("%s: %s, want %s", r.metric, r.verdict, want[r.metric])
		}
	}
	if !regressed {
		t.Error("a 20% drop, a 20% rise and a new failure did not count as a regression")
	}
}

// The committed baseline holds two passes per seed that agree with each
// other under the benchmark's own rules.
func TestBaselineAgreesWithItself(t *testing.T) {
	f, err := readOutFile("baseline-seed.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	a, second := splitRepeats(f.Sets)
	if len(a) < 2 || len(a) != len(second) {
		t.Fatalf("baseline holds %d first and %d second passes, want both seeds twice", len(a), len(second))
	}
	for i := range a {
		for _, d := range identical(a[i], second[i]) {
			t.Errorf("seed %d: %s", a[i].Seed, d)
		}
	}
	rows, regressed := compareSets(b, a, second, true)
	if regressed {
		for _, r := range rows {
			if r.verdict == verdictRegression {
				t.Errorf("seed %d %s %s: %v -> %v", r.seed, r.workload, r.metric, r.old, r.new)
			}
		}
	}
	// Two passes of the same code cannot regress against each other; and
	// with a 20% drop they are unresolved whichever pass is the base.
	rows, regressed = compareSets(benchmarkFile{Workloads: []workloadDesc{{Name: "w"}},
		EndToEnd: []def{{Name: "up", Better: "higher", Bound: 0.1}}},
		[]set{{Seed: 1, Runs: []*result{{Workload: "w", Attempted: 1, Metrics: metricSet{"up": {Value: 100}}}}}},
		[]set{{Seed: 1, Runs: []*result{{Workload: "w", Attempted: 1, Metrics: metricSet{"up": {Value: 80}}}}}}, true)
	if regressed || rows[0].verdict != verdictUnresolved {
		t.Errorf("same code, 20%% apart: verdict %s, regressed %v", rows[0].verdict, regressed)
	}
}
