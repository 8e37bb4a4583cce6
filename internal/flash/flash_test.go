package flash

import (
	"math/rand"
	"testing"
	"time"

	"leaftl/internal/addr"
)

func testCfg() Config {
	c := SimulatorDefaults()
	c.Channels = 2
	c.BlocksPerChan = 4
	c.PagesPerBlock = 8
	return c
}

func TestGeometry(t *testing.T) {
	c := testCfg()
	if c.Blocks() != 8 || c.TotalPages() != 64 {
		t.Fatalf("blocks=%d pages=%d", c.Blocks(), c.TotalPages())
	}
	if c.BlockOf(17) != 2 || c.PageOf(17) != 1 {
		t.Errorf("BlockOf/PageOf(17) = %d/%d", c.BlockOf(17), c.PageOf(17))
	}
	if c.ChannelOf(17) != 0 { // block 2 on channel 2%2=0
		t.Errorf("ChannelOf(17) = %d", c.ChannelOf(17))
	}
	if c.FirstPPA(3) != 24 {
		t.Errorf("FirstPPA(3) = %d", c.FirstPPA(3))
	}
	defaults := SimulatorDefaults()
	if got := defaults.OOBEntries(); got != 32 {
		t.Errorf("OOBEntries = %d, want 32", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCfg()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("Channels=0 accepted")
	}
}

func TestWriteReadEraseCycle(t *testing.T) {
	a, err := NewArray(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	done, _ := a.Write(0, 100, 0xdead, 0)
	if done != a.Config().WriteLatency {
		t.Errorf("first write done at %v", done)
	}
	tok, rev, _, _ := a.Read(0, done)
	if tok != 0xdead || rev != 100 {
		t.Errorf("read back %x/%d", tok, rev)
	}
	if _, seq, _ := a.ScanOOB(0, done); seq == 0 {
		t.Error("write seq not stamped")
	}
	a.Erase(0, 0)
	if a.Written(0) {
		t.Error("page written after erase")
	}
	if a.EraseCount(0) != 1 {
		t.Errorf("erase count %d", a.EraseCount(0))
	}
	// Page is programmable again.
	a.Write(0, 7, 1, 0)
	if a.Reverse(0) != 7 {
		t.Errorf("reverse after rewrite = %d", a.Reverse(0))
	}
}

func TestOutOfOrderProgramPanics(t *testing.T) {
	a, _ := NewArray(testCfg())
	defer func() {
		if recover() == nil {
			t.Error("out-of-order program did not panic")
		}
	}()
	a.Write(1, 0, 0, 0) // page 1 before page 0
}

func TestDoubleProgramPanics(t *testing.T) {
	a, _ := NewArray(testCfg())
	a.Write(0, 0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("double program did not panic")
		}
	}()
	a.Write(0, 0, 0, 0)
}

func TestChannelQueueing(t *testing.T) {
	a, _ := NewArray(testCfg())
	// Block 0 (channel 0) and block 1 (channel 1) proceed in parallel;
	// two ops on the same channel serialize.
	cfg := a.Config()
	d1, _ := a.Write(0, 0, 0, 0)               // ch 0
	d2, _ := a.Write(cfg.FirstPPA(1), 1, 0, 0) // ch 1
	if d1 != d2 {
		t.Errorf("parallel channels finished at %v and %v", d1, d2)
	}
	d3, _ := a.Write(1, 2, 0, 0) // ch 0 again, queued behind d1
	if d3 != d1+a.Config().WriteLatency {
		t.Errorf("queued write done at %v, want %v", d3, d1+a.Config().WriteLatency)
	}
}

func TestOOBWindow(t *testing.T) {
	a, _ := NewArray(testCfg())
	for i := 0; i < 8; i++ {
		a.Write(addr.PPA(i), addr.LPA(1000+i*2), 0, 0)
	}
	win, _, _ := a.OOBWindow(4, 2, 0)
	want := []addr.LPA{1004, 1006, 1008, 1010, 1012}
	for i := range want {
		if win[i] != want[i] {
			t.Errorf("window[%d] = %d, want %d", i, win[i], want[i])
		}
	}
	// Window at the block edge nulls out-of-block slots.
	win, _, _ = a.OOBWindow(0, 2, 0)
	if win[0] != addr.InvalidLPA || win[1] != addr.InvalidLPA {
		t.Errorf("edge window = %v, want leading nulls", win[:2])
	}
	if win[2] != 1000 {
		t.Errorf("center of edge window = %d", win[2])
	}
}

func TestMetaOpsCountAndCharge(t *testing.T) {
	a, _ := NewArray(testCfg())
	before := a.Stats()
	done := a.MetaRead(0, 0)
	if done < a.Config().ReadLatency {
		t.Errorf("meta read done at %v", done)
	}
	a.MetaWrite(0, 0)
	st := a.Stats()
	if st.PageReads != before.PageReads+1 || st.PageWrites != before.PageWrites+1 {
		t.Errorf("meta ops not counted: %+v", st)
	}
}

func TestWriteSeqMonotone(t *testing.T) {
	a, _ := NewArray(testCfg())
	a.Write(0, 0, 0, 0)
	a.Write(1, 1, 0, 0)
	_, seq0, _ := a.ScanOOB(0, 0)
	_, seq1, _ := a.ScanOOB(1, 0)
	if !(seq1 > seq0) {
		t.Error("write sequence not monotone")
	}
	if _, seq, _ := a.ScanOOB(5, 0); seq != 0 {
		t.Error("unwritten page has nonzero seq")
	}
}

func TestBusyUntil(t *testing.T) {
	a, _ := NewArray(testCfg())
	a.Write(0, 0, 0, 5*time.Millisecond)
	if a.dies[0].busyUntil() != 5*time.Millisecond+a.Config().WriteLatency {
		t.Errorf("busyUntil = %v", a.dies[0].busyUntil())
	}
}

// TestReadSuspensionPrograms pins the program-suspension shortcut: a
// read arriving behind a multi-program backlog waits at most one
// program's worth before starting.
func TestReadSuspensionPrograms(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	// Three programs queued back to back on channel 0 (block 0).
	for i := 0; i < 3; i++ {
		a.Write(addr.PPA(i), addr.LPA(i), 0, 0)
	}
	_, _, done, _ := a.Read(0, 0)
	want := cfg.WriteLatency + cfg.ReadLatency // one program, not three
	if done != want {
		t.Errorf("read behind program burst done at %v, want %v", done, want)
	}
}

// TestReadWaitsForErase is the regression for the suspension bug: the
// shortcut used to cap a read's wait at one WriteLatency even when the
// channel was busy with an erase, letting reads start mid-erase. A read
// behind an erase must wait for the erase to finish.
func TestReadWaitsForErase(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	a.Write(0, 0, 0, 0)
	a.Erase(0, cfg.WriteLatency) // queued right after the program
	busy := a.dies[0].busyUntil()
	if busy != cfg.WriteLatency+cfg.EraseLatency {
		t.Fatalf("busyUntil = %v", busy)
	}
	// Block 2 shares channel 0; its page 16 is unwritten but readable
	// (reads of erased pages still occupy the channel).
	_, _, done, _ := a.Read(16, 0)
	if want := busy + cfg.ReadLatency; done != want {
		t.Errorf("read behind erase done at %v, want %v (no mid-erase start)", done, want)
	}
}

// TestReadBehindEraseThenProgram is the regression for the stale-tail
// bug: with a program at the tail but an erase still earlier in the
// queue, the suspension shortcut used to cap the wait at one
// WriteLatency — starting the read mid-erase. The cap may shorten the
// wait behind the tail program, but never below the erase's completion.
func TestReadBehindEraseThenProgram(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	a.Write(0, 0, 0, 0)
	a.Erase(0, cfg.WriteLatency)
	a.Write(0, 9, 9, 0) // re-program after the erase; tail is a program
	eraseDone := cfg.WriteLatency + cfg.EraseLatency
	_, _, done, _ := a.Read(16, 0)
	if want := eraseDone + cfg.ReadLatency; done != want {
		t.Errorf("read behind erase+program done at %v, want %v (no mid-erase start)", done, want)
	}
}

// TestReadBehindProgramThenErase covers the opposite ordering: two
// programs queued, then an erase. The erase has not started, so the read
// suspends the program run like any other — after one tPROG — and the
// rest of the run and the erase behind it move back by tR. (With scalar
// horizons this test asserted the read drained all 1.9ms "because the
// tail is an erase": an artifact of not knowing where in the backlog the
// erase sat.)
func TestReadBehindProgramThenErase(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	a.Write(0, 0, 0, 0)
	a.Write(1, 1, 0, 0)
	a.Erase(2, 0) // block 2 shares unit 0; the erase queues behind both
	busy := 2*cfg.WriteLatency + cfg.EraseLatency
	if a.dies[0].busyUntil() != busy {
		t.Fatalf("busyUntil = %v, want %v", a.dies[0].busyUntil(), busy)
	}
	_, _, done, _ := a.Read(16, 0)
	if want := cfg.WriteLatency + cfg.ReadLatency; done != want {
		t.Errorf("read behind program+erase done at %v, want %v (one program, then suspend)", done, want)
	}
	if want := busy + cfg.ReadLatency; a.dies[0].busyUntil() != want {
		t.Errorf("busyUntil = %v after the read, want %v (the erase moved back by exactly tR)", a.dies[0].busyUntil(), want)
	}
	// The erase now runs [420µs, 1.92ms): a read inside it waits it out.
	_, _, done, _ = a.Read(16, time.Millisecond)
	if want := busy + 2*cfg.ReadLatency; done != want {
		t.Errorf("read during the moved erase done at %v, want %v", done, want)
	}
}

// TestTimelineEraseBookedAhead: an erase reserved for a future time (as
// GC books a victim's erase at its last program's completion) leaves the
// die serving what fits before it; a program that does not fit goes
// after it, and the erase keeps its slot.
func TestTimelineEraseBookedAhead(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	r, w, e := cfg.ReadLatency, cfg.WriteLatency, cfg.EraseLatency
	at := time.Millisecond
	if done, _ := a.Erase(2, at); done != at+e {
		t.Fatalf("erase booked ahead done at %v, want %v", done, at+e)
	}
	if _, _, done, _ := a.Read(16, 0); done != r {
		t.Errorf("read on the idle die done at %v, want %v", done, r)
	}
	for i, want := range []time.Duration{r + w, r + 2*w, r + 3*w, r + 4*w} {
		if done, _ := a.Write(addr.PPA(i), addr.LPA(i), 0, 0); done != want {
			t.Errorf("program %d done at %v, want %v (fits before the erase)", i, done, want)
		}
	}
	// 820µs + 200µs would run into the erase at 1ms.
	if done, _ := a.Write(4, 4, 0, 0); done != at+e+w {
		t.Errorf("program that does not fit done at %v, want %v (after the erase)", done, at+e+w)
	}
	if _, _, done, _ := a.Read(16, 900*time.Microsecond); done != 900*time.Microsecond+r {
		t.Errorf("read in the gap done at %v", done)
	}
	if err := a.CheckTimelines(); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineCopyOutBookedAhead: copy-out reads reserved for a future
// time (a GC victim issued when its slot's predecessor has programmed)
// do not delay a host read issued now, and a host read that overlaps
// their start slides them by the overlap only.
func TestTimelineCopyOutBookedAhead(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	r := cfg.ReadLatency
	at := time.Millisecond
	var copied time.Duration
	for i := 0; i < cfg.PagesPerBlock; i++ {
		_, _, copied, _ = a.Read(addr.PPA(16+i), at)
	}
	if want := at + time.Duration(cfg.PagesPerBlock)*r; copied != want {
		t.Fatalf("copy-out done at %v, want %v", copied, want)
	}
	if _, _, done, _ := a.Read(0, 0); done != r {
		t.Errorf("host read issued now done at %v, want %v", done, r)
	}
	late := at - r/2
	if _, _, done, _ := a.Read(0, late); done != late+r {
		t.Errorf("host read just before the copy-out done at %v, want %v", done, late+r)
	}
	if want := copied + r/2; a.dies[0].busyUntil() != want {
		t.Errorf("copy-out now ends at %v, want %v", a.dies[0].busyUntil(), want)
	}
}

// TestTimelineReadDuringErase: gaps or not, an erase that is running is
// not suspended — a read issued in the middle of it waits for its end,
// and a program issued then goes behind the read.
func TestTimelineReadDuringErase(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	a.Erase(2, 0)
	mid := cfg.EraseLatency / 2
	if _, _, done, _ := a.Read(0, mid); done != cfg.EraseLatency+cfg.ReadLatency {
		t.Errorf("read during a running erase done at %v, want %v", done, cfg.EraseLatency+cfg.ReadLatency)
	}
	if done, _ := a.Write(0, 0, 0, mid); done != cfg.EraseLatency+cfg.ReadLatency+cfg.WriteLatency {
		t.Errorf("program during a running erase done at %v", done)
	}
}

// TestTimelineBlockOrdering is the flash-level NAND ordering guard. A
// die that back-fills gaps no longer orders a block's operations by
// queue position, so the array must: seeded churn of erases booked
// ahead, programs to freshly erased blocks and to other blocks of the
// same die, and suspending reads, with non-monotonic issue times —
// audited through Observe. No page may start programming before its
// block's latest erase ended or before the block's previous page
// started, and no erase may start before the block's last program ended.
func TestTimelineBlockOrdering(t *testing.T) {
	cfg := testCfg()
	a, _ := NewArray(cfg)
	type blockTimes struct{ eraseEnd, progStart, progEnd time.Duration }
	seen := make([]blockTimes, cfg.Blocks())
	programs, erases := 0, 0
	a.Observe(func(b BlockID, erase bool, start, done time.Duration) {
		bt := &seen[b]
		switch {
		case erase && start < bt.progEnd:
			t.Errorf("block %d erased at %v, before its last program ended at %v", b, start, bt.progEnd)
		case !erase && start < bt.eraseEnd:
			t.Errorf("block %d programmed at %v, before its erase ended at %v", b, start, bt.eraseEnd)
		case !erase && start < bt.progStart:
			t.Errorf("block %d programmed at %v, before its previous page started at %v", b, start, bt.progStart)
		}
		if erase {
			erases++
			*bt = blockTimes{eraseEnd: done}
		} else {
			programs++
			bt.progStart, bt.progEnd = start, done
		}
	})
	rng := rand.New(rand.NewSource(20))
	var clock time.Duration
	for i := 0; i < 20000; i++ {
		clock += time.Duration(rng.Intn(1200)) * time.Microsecond
		now := clock
		if rng.Intn(3) == 0 {
			now += time.Duration(rng.Intn(8000)) * time.Microsecond // booked ahead
		}
		b := BlockID(rng.Intn(cfg.Blocks()))
		switch next := a.ProgrammedPages(b); {
		case rng.Intn(4) == 0:
			a.Read(cfg.FirstPPA(b)+addr.PPA(rng.Intn(cfg.PagesPerBlock)), now)
		case next == cfg.PagesPerBlock || next > 0 && rng.Intn(6) == 0:
			a.Erase(b, now)
		default:
			a.Write(cfg.FirstPPA(b)+addr.PPA(next), addr.LPA(i), 0, now)
		}
		if err := a.CheckTimelines(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if programs < 1000 || erases < 100 {
		t.Fatalf("churn made %d programs and %d erases: nothing audited", programs, erases)
	}
}

// TestSuspendedReadsSerialize is the regression for the read-horizon
// bug: reads that preempt one program backlog used to all start at
// now + tPROG and all finish at now + tPROG + tR, as if the die could
// sense N pages at once (a 199-page GC copy-out "completed" in 220µs).
// They must queue behind each other — read i finishes i·tR after the
// first one starts — and each still pushes the program queue back.
func TestSuspendedReadsSerialize(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	// A program burst on unit 0 (block 0), long enough to stay a backlog.
	for i := 0; i < cfg.PagesPerBlock; i++ {
		a.Write(addr.PPA(i), addr.LPA(i), 0, 0)
	}
	backlog := a.dies[0].busyUntil()
	const n = 6
	firstStart := cfg.WriteLatency // the in-flight program finishes first
	for i := 1; i <= n; i++ {
		// Block 2 shares unit 0; reads of its erased pages still sense.
		_, _, done, _ := a.Read(16, 0)
		if want := firstStart + time.Duration(i)*cfg.ReadLatency; done != want {
			t.Fatalf("suspended read %d done at %v, want %v", i, done, want)
		}
	}
	if want := backlog + n*cfg.ReadLatency; a.dies[0].busyUntil() != want {
		t.Errorf("program queue ends at %v after %d preempting reads, want %v", a.dies[0].busyUntil(), n, want)
	}
	// A read issued after the suspended ones drained owes them nothing.
	now := firstStart + (n+3)*cfg.ReadLatency
	_, _, done, _ := a.Read(16, now)
	if want := now + cfg.WriteLatency + cfg.ReadLatency; done != want {
		t.Errorf("later read done at %v, want %v", done, want)
	}
}

// TestObserveProgramsAndErases pins what the Observe hook reports: the
// cell window of each program and erase, in issue order, with queued
// operations starting where their predecessor on the die ended.
func TestObserveProgramsAndErases(t *testing.T) {
	a, _ := NewArray(testCfg())
	cfg := a.Config()
	type op struct {
		b           BlockID
		erase       bool
		start, done time.Duration
	}
	var got []op
	a.Observe(func(b BlockID, erase bool, start, done time.Duration) {
		got = append(got, op{b, erase, start, done})
	})
	a.Write(0, 0, 0, 0)
	a.Erase(0, 0)
	a.Write(0, 1, 1, 0) // issued at 0, but the die is busy until the erase ends
	tw, te := cfg.WriteLatency, cfg.EraseLatency
	want := []op{
		{0, false, 0, tw},
		{0, true, tw, tw + te},
		{0, false, tw + te, 2*tw + te},
	}
	if len(got) != len(want) {
		t.Fatalf("observed %d ops, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
