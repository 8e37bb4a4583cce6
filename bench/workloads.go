package main

import (
	"fmt"
	"time"

	"leaftl/internal/dftl"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/sftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// The system under test is one fixed configuration. Every number below
// is frozen: later changes are judged against runs of this exact file, so
// nothing here is re-derived from the commit under test.
const (
	gamma        = 4       // LeaFTL error bound, pages
	pageSize     = 4096    // flash page, bytes
	oobSize      = 256     // OOB area, bytes
	compactEvery = 65536   // host page writes between Maintain rounds
	queues       = 8       // in-order host queues in both replay loops
	prefillPages = 64      // pages per sequential prefill write
	ageChunk     = 20_000  // requests per aging chunk
	midChunk     = 100_000 // requests generated at a time in open-loop rungs
	bufferBytes  = 8 << 20 // sorted write buffer (paper §3.3)
	sloNs        = 10e6    // latency limit: 10 ms from due time
	pageMapEntry = 8       // bytes per LPA of the page-level map compared against
	repeats      = 3       // fresh-device repeats of setup + sat per run
	maxSetups    = 9       // setups timed per run at most, the repeats' included
	slices       = 64      // equal slices the sat stream is generated and timed in
	heapEvery    = 8       // slices between heap samples
	refSeconds   = 18      // --seconds value the frozen request counts are sized for
	idleGap      = time.Second
	setupBudget  = 2 * time.Second // host time after which no further setup is timed
	tracedDiv    = 4               // traced runs cover the first 1/tracedDiv of each phase
	spanRequests = 10_000          // requests whose spans are written to the trace file
	captureBatch = 2_000           // Commit batches captured for the core/plr replay
	captureLPAs  = 200_000         // Translate LPAs captured for the core lookup replay
)

// scale sizes the device and the request counts. "std" is the frozen
// reference every reported number comes from; "tiny" exists so the tests
// can run all four workloads in seconds.
type scale struct {
	name          string
	blocksPerChan int
	div           int // request counts, pools, buffer and rates are divided by this
}

var scales = map[string]scale{
	"std":  {name: "std", blocksPerChan: 32, div: 1},
	"tiny": {name: "tiny", blocksPerChan: 4, div: 8},
}

// spec is one workload: its generator, its DRAM pool and its frozen
// request counts and offered rate.
type spec struct {
	name string
	why  string
	// gen produces the measured mix; age is the same generator with reads
	// forced off where the profile has a read fraction.
	gen, age workload.Generator
	// poolBytes is the DRAM left after the write buffer: mapping table
	// first, data cache gets the rest.
	poolBytes int
	// nSat and nMid are request counts at refSeconds and scale std.
	nSat, nMid int
	// warm is the number of warm-up requests of the real mix.
	warm int
	// rateMid is the frozen offered rate of the mid rung in requests per
	// second, chosen once at the seed commit: the highest rate of a coarse
	// ladder at which the backlog behind one GC stall has drained before
	// the next stall lands, so that tail latency is a property of the
	// device and not of which queue two stalls happened to share. The low
	// and high rungs offer half and one and a half times as much; at the
	// seed commit the high rung is already past that point.
	rateMid float64
}

func hmMix() workload.Profile {
	p, ok := workload.ByName("MSR-hm")
	if !ok {
		panic("bench: workload catalog lost MSR-hm")
	}
	p.FootprintFrac = 0.9
	return p
}

func writeOnly(p workload.Profile) workload.Profile {
	p.ReadFrac = 0
	return p
}

var (
	zipfRead  = workload.ZipfianProfile{Name: "zipf-read", S: 1.05, ReadFrac: 0.95, MinPages: 1, MaxPages: 4, FootprintFrac: 0.8}
	zipfAge   = workload.ZipfianProfile{Name: "zipf-read", S: 1.05, ReadFrac: 0, MinPages: 1, MaxPages: 4, FootprintFrac: 0.8}
	scanPaged = workload.MixedProfile{Name: "scan-update-paged", ScanReqs: 48, UpdateReqs: 96, ScanPages: 32, UpdateMaxPages: 4,
		HotFrac: 0.8, HotSpace: 0.1, FootprintFrac: 0.5}
	randWrite = workload.Profile{Name: "rand-write", ReadFrac: 0, MinPages: 1, MaxPages: 4, HotFrac: 0.5, HotSpace: 0.2, FootprintFrac: 0.9}
)

// specs lists the four workloads in report order.
var specs = []spec{
	{
		name: "zipf-read",
		why:  "95% zipf reads, map resident: translation, OOB-verified reads and the ssd read/cache path do the work; learning, GC and paging do little",
		gen:  zipfRead, age: zipfAge,
		poolBytes: 4 << 20, nSat: 3_200_000, nMid: 4_000_000, warm: 100_000, rateMid: 50_000,
	},
	{
		name: "hm-mix",
		why:  "MSR-hm mix (35% reads; strided, sequential, hot-random), map resident: the paper-regime cell where every layer shares the work",
		gen:  hmMix(), age: writeOnly(hmMix()),
		poolBytes: 12 << 20, nSat: 720_000, nMid: 1_000_000, warm: 50_000, rateMid: 3_000,
	},
	{
		name: "scan-update-paged",
		why:  "32-page scans beside hot point updates with a quarter of the map resident: pager faults, journal appends/folds and translation-page reads dominate",
		gen:  scanPaged, age: scanPaged,
		poolBytes: 256 << 10, nSat: 100_000, nMid: 120_000, warm: 10_000, rateMid: 1_700,
	},
	{
		name: "rand-write",
		why:  "writes only, half to a hot fifth: buffer flush, plr fit, table update/compact, GC relocation and relearn do the work and Lookup almost none",
		gen:  randWrite, age: randWrite,
		poolBytes: 16 << 20, nSat: 150_000, nMid: 200_000, warm: 10_000, rateMid: 900,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// counts sizes the phases for a run measuring for the given seconds.
func (sp spec) counts(sc scale, seconds int) (nSat, nMid int) {
	nSat = sp.nSat / sc.div * seconds / refSeconds
	nMid = sp.nMid / sc.div * seconds / refSeconds
	return max(nSat, slices*queues), max(nMid, slices*queues)
}

// deviceConfig is ssd.SimulatorConfig (paper Table 1) scaled to the
// benchmark's capacity, with DRAM = write buffer + the workload's pool.
func deviceConfig(sc scale, poolBytes int) ssd.Config {
	cfg := ssd.SimulatorConfig()
	cfg.Flash.BlocksPerChan = sc.blocksPerChan
	cfg.Flash.OOBSize = oobSize
	cfg.BufferPages = max(bufferBytes/pageSize/sc.div, cfg.Flash.PagesPerBlock)
	cfg.DRAMBytes = cfg.BufferBytes() + int64(poolBytes/sc.div)
	return cfg
}

// Scheme names: "full" is the system under test with every code path
// PRs 4-10 added live; the others are the companions.
const fullScheme = "full"

var companionSchemes = []string{"paper", "dftl", "sftl"}

func newScheme(name string, budget int) ftl.Scheme {
	switch name {
	case fullScheme:
		return leaftl.New(gamma, pageSize, leaftl.WithJournal(), leaftl.WithExactBitmap(),
			leaftl.WithAutoTune(0), leaftl.WithCompactEvery(compactEvery))
	case "paper":
		return leaftl.New(gamma, pageSize, leaftl.WithCompactEvery(compactEvery))
	case "dftl":
		return dftl.New(pageSize, budget)
	case "sftl":
		return sftl.New(pageSize, budget)
	}
	panic(fmt.Sprintf("bench: unknown scheme %q", name))
}

// Seed streams: every generator draws from --seed through one of these,
// so no two streams of a run share a sequence.
const (
	streamSat     = 1
	streamMid     = 2 // + rung index (0 low, 1 mid, 2 high)
	streamPoisson = 5 // + rung index
	streamWarm    = 99
	streamAge     = 1000
)

// source yields one stream of a workload in chunks, so a multi-million
// request phase never holds more than one chunk. Chunk k of a stream is
// always the same requests for the same seed.
type source struct {
	gen     workload.Generator
	logical int
	seed    int64
	stream  int
	chunk   int
	// genNs is the host time spent generating, for workload.gen_ns_per_req.
	genNs, genReqs int64
}

// nextSeed returns the seed of the next chunk and moves on to it.
func (s *source) nextSeed() int64 {
	seed := (s.seed*10_007+int64(s.stream))*1_000_003 + int64(s.chunk)
	s.chunk++
	return seed
}

func (s *source) next(n int) []trace.Request {
	t0 := time.Now()
	reqs := s.gen.Generate(s.logical, n, s.nextSeed())
	s.genNs += time.Since(t0).Nanoseconds()
	s.genReqs += int64(n)
	return reqs
}
