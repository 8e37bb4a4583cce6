package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// The answer memo: a group that is read far more often than it changes
// answers from a copy of its 256 slots' translations instead of walking
// its levels again for each one (Algorithm 1 lines 17–22). The copy is
// the output of one whole-group sweep, the one LookupRun makes for a
// window, packed 8 B a slot, and it is valid until the group's answers
// next change. Every change goes through one of three calls, and each
// one calls memo.changed, the group's mutation stamp, which drops the
// copy:
//
//   - openTop, which every commit run passes through, including the
//     close/open cycles around applyEdits and repairRun;
//   - compactGroup, after its rebuild (a rebuild keeps every PPA but may
//     move the level that answers a slot);
//   - the tests' insert helper, which opens the top level too.
//
// InstallGroup replaces the group, so a restored group starts with no
// memo, and DropGroup frees the memo with the group. EnableVerifyAtLearn
// changes only Exact, which is derived from the table at read time, not
// stored.
//
// The memo is host working state, like the CRB's owner index: the
// simulated controller still walks the levels, so Levels, Approx,
// Redirected and Exact are the walk's values and SizeBytes does not
// count the memo.
//
// A fill is one whole-group sweep plus the packing, about as costly as
// memoFillLPAs walks on an aged table, so a group fills its memo once it
// has translated that many LPAs since its last change (Lookup counts
// one, LookupRun the window's length): a group changed more often than
// that never fills and keeps paying only the walk. A fill pays off when
// the memo answers at least as many LPAs before the group next changes.
// A group whose fill did not pay doubles its trigger, up to a whole
// group's worth of LPAs, and one whose fill paid halves it again, down
// to memoFillLPAs: a group written about as often as it is read stops
// filling a memo it will not use.
//
// AuditExact and CheckShape sweep the levels directly: an audit neither
// reads nor fills a memo.

// memoFillLPAs is the fill trigger of a group whose fills pay. On
// BenchmarkLookupAged's table (an aged, verifying γ = 4 table of 221
// segments and 6.1 levels per group), a fill costs 6.2–7.4 µs, about 22
// cold walks of 300–320 ns, and a memo hit 10–11 ns.
const memoFillLPAs = 24

// A packed slot, as the sweep writes it: the PPA in the low 32 bits,
// Levels in the next 8, then the ok, approximate and redirected bits.
const (
	memoLevelsShift = 32
	memoOK          = 1 << 40
	memoApprox      = 1 << 41
	memoRedirected  = 1 << 42
)

// answerMemo is one group's memo: the packed answers, allocated at the
// group's first fill and reused after that, and whether they hold the
// group's current answers. reads counts the LPAs the group translated
// since its last change or, while the memo is valid, the LPAs the memo
// answered after the fill; the fill trigger is memoFillLPAs << backoff.
type answerMemo struct {
	slots   *[addr.GroupSize]uint64
	valid   bool
	reads   int
	backoff uint8
}

// changed drops the memo, moves the trigger by whether the fill paid,
// and restarts the read count: the group's answers are about to change.
func (m *answerMemo) changed() {
	if m.valid {
		switch {
		case m.reads >= memoFillLPAs:
			if m.backoff > 0 {
				m.backoff--
			}
		case memoFillLPAs<<(m.backoff+1) <= addr.GroupSize:
			m.backoff++
		}
	}
	m.valid = false
	m.reads = 0
}

// note counts n LPAs translated without the memo and reports whether
// the group should fill it now.
func (m *answerMemo) note(n int) bool {
	m.reads += n
	return m.reads >= memoFillLPAs<<m.backoff
}

// unpack decodes a memo slot, deriving Exact from the table.
func (t *Table) unpack(v uint64) (addr.PPA, LookupResult, bool) {
	res := LookupResult{
		Levels:     int(uint8(v >> memoLevelsShift)),
		Approx:     v&memoApprox != 0,
		Redirected: v&memoRedirected != 0,
	}
	res.Exact = res.Approx && t.verifying
	return addr.PPA(v), res, v&memoOK != 0
}

// fill sweeps group g, whose first LPA is base, into its memo.
func (t *Table) fill(g *group, base addr.LPA) {
	if g.memo.slots == nil {
		g.memo.slots = new([addr.GroupSize]uint64)
	}
	t.sweep(g, base, g.memo.slots[:])
	g.memo.valid = true
	g.memo.reads = 0
}

// checkMemo fails when g holds a valid memo that differs from swept,
// the group's slots from a fresh sweep.
func (g *group) checkMemo(id addr.GroupID, swept []uint64) error {
	if !g.memo.valid {
		return nil
	}
	for o, want := range swept {
		if v := g.memo.slots[o]; v != want {
			return fmt.Errorf("group %d: memo slot %d holds %#x, the levels answer %#x", id, o, v, want)
		}
	}
	return nil
}
