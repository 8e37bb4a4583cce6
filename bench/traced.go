package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/metrics"
	"leaftl/internal/plr"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
)

// rungNames are the open-loop rungs of a traced run, ascending in load.
var rungNames = [3]string{"low", "mid", "high"}

// rungFactors scale the frozen mid rate to each rung.
var rungFactors = [3]float64{0.5, 1, 1.5}

// runTraced produces the per-layer metrics of one workload from a separate
// run over the first 1/tracedDiv of each phase: the sat phase untraced under
// each scheme, the same sat traced, the three rungs, recovery and the
// standalone layer replays.
func runTraced(sp spec, sc scale, seed int64, seconds int, outDir string) *result {
	nSat, nMid := sp.counts(sc, seconds)
	nSat, nMid = max(nSat/tracedDiv, slices*queues), max(nMid/tracedDiv, slices*queues)
	res := newResult(sp, seed, true, (2+len(companionSchemes))*nSat+len(rungNames)*nMid)

	// The schemes side by side, untraced, on the same aged device and sat
	// stream. The full scheme's run is also the tracing overhead reference.
	var refSat satResult
	for _, name := range append([]string{fullScheme}, companionSchemes...) {
		sat, dig, err := sideBySide(res, sp, sc, seed, name, nSat)
		if err != nil {
			return res.fail(fmt.Errorf("untraced %s: %w", name, err))
		}
		if name == fullScheme {
			refSat = sat
			res.Digests = append(res.Digests, dig)
		}
	}

	// The traced device: same scheme behind the wrapper.
	tr := newTracer(nSat)
	var wrapErr error
	r, err := setup(sp, sc, fullScheme, seed, func(s ftl.Scheme) ftl.Scheme {
		w, err := tr.wrap(s)
		if err != nil {
			wrapErr = err
			return s
		}
		return w
	})
	if err == nil {
		err = wrapErr
	}
	if err != nil {
		return res.fail(fmt.Errorf("traced setup: %w", err))
	}
	real := r.real.(*leaftl.Scheme)
	pagerBefore, journalBefore := real.PagingStats(), real.JournalStats()
	simStart := r.dev.Now()

	tr.active = true
	sat, err := runSat(r, nSat, tr)
	tr.active = false
	if err != nil {
		return res.fail(fmt.Errorf("traced sat: %w", err))
	}
	res.Digests = append(res.Digests, digest(r.dev))
	// The wrapper is transparent: the traced device must end the sat
	// phase in the very state the untraced one did.
	if res.Digests[1] != res.Digests[0] || sat.perSec != refSat.perSec {
		return res.fail(fmt.Errorf("traced sat diverged from untraced: digest %s vs %s, %v vs %v req/s",
			res.Digests[1], res.Digests[0], sat.perSec, refSat.perSec))
	}
	satEnd := snapshot(r.dev)
	simElapsed := r.dev.Now() - simStart
	t0 := time.Now()
	if err := r.dev.CheckInvariants(); err != nil {
		return res.fail(fmt.Errorf("after traced sat: %w", err))
	}
	invariantsMs := float64(time.Since(t0).Nanoseconds()) / 1e6

	res.set("trace_overhead_frac", ratio(float64(sumSlices(sat.sliceNs)), float64(sumSlices(refSat.sliceNs)))-1, nSat)
	workloadMetrics(res, r, nSat)
	ssdMetrics(res, tr, satEnd.st, simElapsed, nSat)
	leaftlMetrics(res, tr, nSat)
	pagerMetrics(res, real, pagerBefore, journalBefore, satEnd, nSat)
	flashMetrics(res, satEnd, r.base, simElapsed, r.dev.Config().Flash)
	res.set("ssd.invariants_host_ms", invariantsMs, 1)

	// Load curve and latency attribution: three rungs, ascending.
	var curve [3]rungResult
	var attr [3]attributor
	for i := range rungNames {
		r.idle()
		attr[i].dev = r.dev
		curve[i], err = runRung(r, nMid, sp.rateMid*rungFactors[i]/float64(sc.div), i, &attr[i])
		if err != nil {
			return res.fail(fmt.Errorf("%s rung: %w", rungNames[i], err))
		}
		if err := r.dev.CheckInvariants(); err != nil {
			return res.fail(fmt.Errorf("after %s rung: %w", rungNames[i], err))
		}
	}
	curveMetrics(res, curve)
	wait, svc := attr[1].shares()
	res.set("attr.queue_wait_share", wait, nMid)
	res.set("attr.svc_gc_share", svc[attrGC], nMid)
	res.set("attr.svc_flush_share", svc[attrFlush], nMid)
	res.set("attr.svc_mapfault_share", svc[attrMapFault], nMid)
	res.set("attr.svc_plain_share", svc[attrPlain], nMid)

	coreTableMetrics(res, real, r.dev.LogicalPages())

	// Crash recovery onto a fresh scheme, then the invariants again.
	t0 = time.Now()
	rep, err := r.dev.Recover(newScheme(fullScheme, 0))
	if err != nil {
		return res.fail(fmt.Errorf("recover: %w", err))
	}
	res.set("ssd.recover_host_ms", float64(time.Since(t0).Nanoseconds())/1e6, 1)
	res.set("ssd.recover_groups_restored", float64(rep.GroupsRestored), 0)
	if err := r.dev.CheckInvariants(); err != nil {
		return res.fail(fmt.Errorf("after recovery: %w", err))
	}

	replayLayers(res, tr, r.dev.Config().Flash)
	if outDir != "" {
		if err := writeTrace(outDir, res, tr); err != nil {
			return res.fail(fmt.Errorf("write trace: %w", err))
		}
	}
	return res
}

// workloadMetrics describes the sat stream itself and what producing and
// parsing it costs the host.
func workloadMetrics(res *result, r *rig, nSat int) {
	src := r.source(r.sp.gen, streamSat)
	reqs := src.next(min(nSat, 50_000))
	touched := make([]bool, r.dev.LogicalPages())
	var reads, pages, distinct int
	for _, q := range reqs {
		if q.Op == trace.OpRead {
			reads++
		}
		pages += q.Pages
		for l := int(q.LPA); l < int(q.LPA)+q.Pages; l++ {
			if !touched[l] {
				touched[l] = true
				distinct++
			}
		}
	}
	res.set("workload.gen_ns_per_req", ratio(float64(src.genNs), float64(src.genReqs)), len(reqs))
	res.set("workload.read_frac", ratio(float64(reads), float64(len(reqs))), len(reqs))
	res.set("workload.mean_pages", ratio(float64(pages), float64(len(reqs))), len(reqs))
	res.set("workload.distinct_lpa_frac", ratio(float64(distinct), float64(pages)), pages)

	// Parse cost of the same requests in each of the three trace formats.
	var parseNs int64
	parsed := 0
	for _, f := range []trace.Format{trace.FormatNative, trace.FormatMSR, trace.FormatFIU} {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, f, reqs, trace.Options{}); err != nil {
			continue
		}
		t0 := time.Now()
		got, err := trace.Decode(&buf, f, trace.Options{})
		if err != nil {
			continue
		}
		parseNs += time.Since(t0).Nanoseconds()
		parsed += len(got)
	}
	res.set("trace.parse_ns_per_req", ratio(float64(parseNs), float64(parsed)), parsed)
}

func meanAndP99(ns []int64) (mean, p99 float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	s := make([]float64, len(ns))
	var sum float64
	for i, v := range ns {
		s[i] = float64(v)
		sum += s[i]
	}
	sort.Float64s(s)
	p99, _ = percentile(s, 99)
	return sum / float64(len(s)), p99
}

// ssdMetrics are the device layer's work over the traced sat phase.
func ssdMetrics(res *result, tr *tracer, st ssd.Stats, simElapsed time.Duration, nSat int) {
	mean, p99 := meanAndP99(tr.readNs)
	res.set("ssd.read_call_ns", mean, len(tr.readNs))
	res.set("ssd.read_call_p99_ns", p99, len(tr.readNs))
	mean, p99 = meanAndP99(tr.writeNs)
	res.set("ssd.write_call_ns", mean, len(tr.writeNs))
	res.set("ssd.write_call_p99_ns", p99, len(tr.writeNs))
	res.set("ssd.self_ns_per_req", ratio(float64(tr.selfNs), float64(nSat)), nSat)
	pagesRead, pagesWritten := float64(st.HostPagesRead), float64(st.HostPagesWrite)
	res.set("ssd.buffer_hit_frac", ratio(float64(st.BufferHits), pagesRead), int(st.HostPagesRead))
	res.set("ssd.cache_hit_frac", ratio(float64(st.CacheHits), pagesRead), int(st.HostPagesRead))
	res.set("ssd.flush_blocks", float64(st.FlushedBlocks), 0)
	res.set("ssd.gc_runs", float64(st.GCRuns), 0)
	res.set("ssd.gc_pages_moved_per_kwrite", 1e3*ratio(float64(st.GCPagesMoved), pagesWritten), int(st.HostPagesWrite))
	res.set("ssd.gc_time_share", ratio(float64(st.GCTime), float64(simElapsed)), 0)
	res.set("ssd.gc_stall_share", ratio(float64(st.GCStall), float64(simElapsed)), 0)
	res.set("ssd.mispredict_frac", st.MispredictionRatio(), int(st.HostPagesRead))
	res.set("ssd.double_reads_per_kread", 1e3*st.DoubleReadRatio(), int(st.HostPagesRead))
	res.set("ssd.exact_bit_hit_frac", st.ExactBitHitRatio(), int(st.ApproxReads))
	res.set("ssd.oob_fallbacks", float64(st.OOBFallbacks), 0)
	res.set("ssd.relearns", float64(st.Relearns), 0)
	res.set("ssd.meta_reads_per_kreq", 1e3*ratio(float64(st.MetaReads), float64(nSat)), nSat)
	res.set("ssd.meta_writes_per_kwrite", 1e3*ratio(float64(st.MetaWrites), pagesWritten), int(st.HostPagesWrite))
}

// leaftlMetrics are the scheme's spans over the traced sat phase.
func leaftlMetrics(res *result, tr *tracer, nSat int) {
	perCall := func(kinds ...int) (float64, int) {
		var a aggregate
		for _, k := range kinds {
			a.Calls += tr.agg[k].Calls
			a.Ns += tr.agg[k].Ns
		}
		return ratio(float64(a.Ns), float64(a.Calls)), int(a.Calls)
	}
	perUnit := func(k int) (float64, int) {
		return ratio(float64(tr.agg[k].Ns), float64(tr.agg[k].Units)), int(tr.agg[k].Units)
	}
	v, n := perCall(spanTranslate)
	res.set("leaftl.translate_ns", v, n)
	res.set("leaftl.translate_calls_per_req", ratio(float64(n), float64(nSat)), nSat)
	v, n = perUnit(spanCommit)
	res.set("leaftl.commit_ns_per_pair", v, n)
	v, n = perUnit(spanCommitGC)
	res.set("leaftl.commit_gc_ns_per_pair", v, n)
	v, n = perCall(spanNoteRead, spanNoteExact)
	res.set("leaftl.note_read_ns", v, n)
	res.set("leaftl.maintain_ms", float64(tr.agg[spanMaintain].Ns)/1e6, int(tr.agg[spanMaintain].Calls))
	res.set("leaftl.host_time_share", ratio(float64(tr.schemeNs()), float64(tr.agg[spanRead].Ns+tr.agg[spanWrite].Ns)), nSat)

	levels := make([]float64, len(tr.levels))
	var sum float64
	for i, l := range tr.levels {
		levels[i] = float64(l)
		sum += levels[i]
	}
	sort.Float64s(levels)
	p99, _ := percentile(levels, 99)
	res.set("core.lookup_levels_avg", ratio(sum, float64(len(levels))), len(levels))
	res.set("core.lookup_levels_p99", p99, len(levels))
}

// pagerMetrics are the pager's and the journal's work over the traced sat
// phase, and their occupancy at its end.
func pagerMetrics(res *result, s *leaftl.Scheme, pb core.PagerStats, jb ftl.JournalStats, end traffic, nSat int) {
	p, j := s.PagingStats(), s.JournalStats()
	res.set("pager.faults_per_kreq", 1e3*ratio(float64(p.Faults-pb.Faults), float64(nSat)), nSat)
	res.set("pager.evictions_per_kreq", 1e3*ratio(float64(p.Evictions-pb.Evictions), float64(nSat)), nSat)
	res.set("pager.dirty_writebacks", float64(p.DirtyWritebacks-pb.DirtyWritebacks), 0)
	res.set("pager.resident_frac", ratio(float64(s.MemoryBytes()), float64(s.FullSizeBytes())), 0)
	res.set("journal.appends_per_kwrite", 1e3*ratio(float64(j.Appends-jb.Appends), float64(end.st.HostPagesWrite)), int(end.st.HostPagesWrite))
	res.set("journal.folds", float64(j.Folds-jb.Folds), 0)
	res.set("journal.gc_runs", float64(j.GCRuns-jb.GCRuns), 0)
	res.set("journal.max_chain", float64(j.MaxChain), 0)
	res.set("journal.pages", float64(j.Pages), 0)
}

// flashMetrics are the array's operation counts over the traced sat phase
// and the share of the channels' time they would fill.
func flashMetrics(res *result, end traffic, base flash.Stats, simElapsed time.Duration, cfg flash.Config) {
	reads := end.fl.PageReads - base.PageReads
	writes := end.fl.PageWrites - base.PageWrites
	erases := end.fl.BlockErases - base.BlockErases
	res.set("flash.page_reads", float64(reads), 0)
	res.set("flash.page_writes", float64(writes), 0)
	res.set("flash.erases", float64(erases), 0)
	busy := time.Duration(reads)*cfg.ReadLatency + time.Duration(writes)*cfg.WriteLatency + time.Duration(erases)*cfg.EraseLatency
	res.set("flash.util_est", ratio(float64(busy), float64(cfg.Channels)*float64(simElapsed)), 0)
}

// curveMetrics are the load curve: tail latency at each rung, how much of
// the offered load the top rung completed, and the highest rung that met
// the latency limit without a growing backlog.
func curveMetrics(res *result, curve [3]rungResult) {
	sloKiops := 0.0
	for i, c := range curve {
		reads, writes, all := sortedUs(c.reads), sortedUs(c.writes), sortedUs(c.reads, c.writes)
		rp99, _ := percentile(reads, 99)
		wp99, _ := percentile(writes, 99)
		achieved := ratio(float64(c.n)/c.makespan.Seconds(), c.offered)
		switch rungNames[i] {
		case "mid":
			// The mid rung at trace length also reports the end-to-end
			// latency figures the full-length untraced run cannot: a median
			// that is one constant of the flash model, percentiles split by
			// direction (one workload has no reads), and a share that may
			// reach zero.
			p50, _ := percentile(reads, 50)
			res.set("sim_read_p50_us", p50, len(reads))
			res.set("sim_read_p99_us", rp99, len(reads))
			res.set("sim_write_p99_us", wp99, len(writes))
			res.set("sim_slo_miss_frac", 1-sloOKFrac(all), len(all))
		default:
			res.set("curve."+rungNames[i]+".read_p99_us", rp99, len(reads))
			res.set("curve."+rungNames[i]+".write_p99_us", wp99, len(writes))
		}
		if rungNames[i] == "high" {
			res.set("curve.high.achieved_frac", achieved, c.n)
		}
		if p99, _ := percentile(all, 99); p99*1e3 <= sloNs && achieved >= 0.98 {
			sloKiops = c.offered / 1e3
		}
	}
	res.set("curve.slo_kiops", sloKiops, 0)
}

// coreTableMetrics describe the learned table after the rungs: its shape
// and its size against an 8 B/LPA page-level map of the same LPAs.
func coreTableMetrics(res *result, s *leaftl.Scheme, logicalPages int) {
	st := s.Table().Stats() // resident groups only when paging
	full := float64(s.FullSizeBytes())
	res.set("core.segments", float64(st.Segments), 0)
	res.set("core.approx_segment_frac", ratio(float64(st.Approximate), float64(st.Segments)), st.Segments)
	res.set("core.crb_bytes", float64(st.CRBBytes), 0)
	res.set("core.bytes_per_lpa", ratio(full, float64(logicalPages)), logicalPages)
	res.set("core.map_reduction_x", ratio(float64(pageMapEntry*logicalPages), full), logicalPages)
}

// replayLayers times the layers below what can be wrapped, standalone, on
// what the traced device actually sent them: the captured Commit batches
// go through a fresh core.Table and the plr fitter, the captured Translate
// LPAs through the table's Lookup, and the flash array and the latency
// histogram are driven directly.
func replayLayers(res *result, tr *tracer, fcfg flash.Config) {
	table := core.NewTable(gamma)
	var pairs int
	t0 := time.Now()
	for _, b := range tr.batches {
		table.Update(b)
		pairs += len(b)
	}
	res.set("core.update_ns_per_pair", ratio(float64(time.Since(t0).Nanoseconds()), float64(pairs)), pairs)

	lpas := tr.lpas
	if len(lpas) == 0 {
		// A write-only mix never translates; look up what it committed.
		for _, b := range tr.batches {
			for i := 0; i < len(b); i += 8 {
				lpas = append(lpas, b[i].LPA)
			}
		}
	}
	t0 = time.Now()
	found := 0
	for _, l := range lpas {
		if _, _, ok := table.Lookup(l); ok {
			found++
		}
	}
	res.set("core.lookup_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(len(lpas))), found)
	t0 = time.Now()
	table.Compact()
	res.set("core.compact_ms", float64(time.Since(t0).Nanoseconds())/1e6, len(tr.batches))

	// The fitter sees each batch as core feeds it: per 256-LPA group,
	// group-relative LPA against PPA.
	var pts []plr.Point
	var segs []plr.Segment
	var points, fitted int
	var fitNs int64
	for _, b := range tr.batches {
		for i := 0; i < len(b); {
			g := addr.Group(b[i].LPA)
			base := addr.GroupBase(g)
			pts = pts[:0]
			for ; i < len(b) && addr.Group(b[i].LPA) == g; i++ {
				pts = append(pts, plr.Point{X: int64(b[i].LPA - base), Y: int64(b[i].PPA)})
			}
			t0 = time.Now()
			segs = plr.FitAppend(segs[:0], pts, gamma, 0, 1, int64(addr.GroupSize-1))
			fitNs += time.Since(t0).Nanoseconds()
			points += len(pts)
			fitted += len(segs)
		}
	}
	res.set("plr.fit_ns_per_point", ratio(float64(fitNs), float64(points)), points)
	res.set("plr.segments_per_batch", ratio(float64(fitted), float64(len(tr.batches))), len(tr.batches))
	res.set("plr.points_per_segment", ratio(float64(points), float64(fitted)), fitted)

	if arr, err := flash.NewArray(fcfg); err == nil {
		n := min(100_000, fcfg.TotalPages())
		t0 = time.Now()
		for p := 0; p < n; p++ {
			_, _ = arr.Write(addr.PPA(p), addr.LPA(p), uint64(p), 0) // perfect flash: cannot fail
		}
		res.set("flash.program_ns", float64(time.Since(t0).Nanoseconds())/float64(n), n)
		t0 = time.Now()
		for p := 0; p < n; p++ {
			_, _, _, _ = arr.Read(addr.PPA(p), 0)
		}
		res.set("flash.read_ns", float64(time.Since(t0).Nanoseconds())/float64(n), n)
	}

	h := metrics.NewHistogram()
	const observations = 1_000_000
	t0 = time.Now()
	for i := 0; i < observations; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	res.set("metrics.observe_ns", float64(time.Since(t0).Nanoseconds())/observations, observations)
}

// sideBySide runs the aged device and the sat stream under one scheme,
// untraced, and reports the figures the paper's relative claims rest on
// under that scheme's name.
func sideBySide(res *result, sp spec, sc scale, seed int64, name string, nSat int) (satResult, string, error) {
	r, err := setup(sp, sc, name, seed, nil)
	if err != nil {
		return satResult{}, "", fmt.Errorf("setup: %w", err)
	}
	sat, err := runSat(r, nSat, nil)
	if err != nil {
		return sat, "", fmt.Errorf("sat: %w", err)
	}
	if err := r.dev.CheckInvariants(); err != nil {
		return sat, "", err
	}
	end := snapshot(r.dev)
	res.set(name+".sim_sat_kiops", sat.perSec/1e3, nSat)
	res.set(name+".map_bytes", float64(r.real.FullSizeBytes()), 0)
	res.set(name+".waf", ratio(float64(end.fl.PageWrites-r.base.PageWrites), float64(end.st.HostPagesWrite)), 0)
	res.set(name+".read_amp", ratio(float64(end.fl.PageReads-r.base.PageReads), float64(end.st.HostPagesRead+end.st.HostPagesWrite)), 0)
	res.set(name+".meta_reads_per_kreq", 1e3*ratio(float64(end.st.MetaReads), float64(nSat)), nSat)
	res.set(name+".host_ns_per_req", ratio(float64(sumSlices(sat.sliceNs)), float64(nSat)), nSat)
	return sat, digest(r.dev), nil
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Clock    string `json:"clock"`
	// Spans are the first spanRequests requests of the traced sat phase.
	Spans        []spanJSON           `json:"spans"`
	SpansDropped int64                `json:"spans_dropped"`
	Aggregates   map[string]aggregate `json:"aggregates"`
	Metrics      metricSet            `json:"metrics"`
}

type spanJSON struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	ID     int    `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func writeTrace(dir string, res *result, tr *tracer) error {
	f := traceFile{
		Workload: res.Workload, Seed: res.Seed,
		Clock:        "host nanoseconds since the tracer was created",
		Spans:        make([]spanJSON, len(tr.spans)),
		SpansDropped: tr.dropped,
		Aggregates:   map[string]aggregate{},
		Metrics:      res.Metrics,
	}
	for i, s := range tr.spans {
		f.Spans[i] = spanJSON{Name: spanNames[s.Kind], Req: s.Req, ID: i, Parent: s.Parent, Start: s.Start, End: s.End}
	}
	for k, a := range tr.agg {
		f.Aggregates[spanNames[k]] = a
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+res.Workload+".json"), data, 0o644)
}
