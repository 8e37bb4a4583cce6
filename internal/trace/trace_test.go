package trace

import (
	"errors"
	"strings"
	"testing"
	"time"

	"leaftl/internal/addr"
)

func TestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpWrite, LPA: 0, Pages: 8},
		{Op: OpRead, LPA: 42, Pages: 1},
		{Op: OpWrite, LPA: 1 << 20, Pages: 64},
	}
	var sb strings.Builder
	if err := Write(&sb, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("parsed %d requests, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Errorf("request %d: got %v, want %v", i, got[i], reqs[i])
		}
	}
}

func TestParseTimedLines(t *testing.T) {
	in := "W,0,8,0\nR,42,1,1000000\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Arrival != 0 || got[1].Arrival != time.Millisecond {
		t.Errorf("parsed %v", got)
	}
	if !Timed(got) {
		t.Error("Timed = false for a timed trace")
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nW,1,2\n  \nr, 3 , 4\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != OpWrite || got[1].Op != OpRead || got[1].LPA != 3 {
		t.Errorf("parsed %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"X,1,2",      // bad op
		"R,abc,2",    // bad lpa
		"R,1",        // missing field
		"R,1,0",      // zero pages
		"R,1,-3",     // negative pages
		"R,1,2,3,4",  // extra field
		"R,1,2,x",    // bad arrival
		"R,1,2,-100", // negative arrival
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

type fakeDev struct {
	reads, writes int
	failAt        int
}

func (f *fakeDev) Read(lpa addr.LPA, pages int) (time.Duration, error) {
	f.reads++
	if f.reads+f.writes == f.failAt {
		return 0, errors.New("boom")
	}
	return time.Microsecond, nil
}

func (f *fakeDev) Write(lpa addr.LPA, pages int) (time.Duration, error) {
	f.writes++
	if f.reads+f.writes == f.failAt {
		return 0, errors.New("boom")
	}
	return time.Microsecond, nil
}

func TestReplay(t *testing.T) {
	d := &fakeDev{}
	reqs := []Request{{Op: OpWrite, LPA: 0, Pages: 1}, {Op: OpRead, LPA: 0, Pages: 1}}
	if err := Replay(d, reqs); err != nil {
		t.Fatal(err)
	}
	if d.reads != 1 || d.writes != 1 {
		t.Errorf("reads=%d writes=%d", d.reads, d.writes)
	}
}

func TestReplayPropagatesError(t *testing.T) {
	d := &fakeDev{failAt: 2}
	reqs := []Request{{Op: OpWrite, LPA: 0, Pages: 1}, {Op: OpRead, LPA: 0, Pages: 1}}
	if err := Replay(d, reqs); err == nil {
		t.Fatal("error swallowed")
	}
}
