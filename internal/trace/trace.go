// Package trace ingests and replays block I/O traces. It speaks three
// wire formats — the repo's native "R,<lpa>,<pages>[,<arrival_ns>]"
// lines, MSR Cambridge CSV, and FIU/blkparse-style records (see
// docs/TRACES.md) — normalizing all of them into page-granular Requests
// with arrival timestamps. Open auto-detects the format; Replay drives a
// device closed-loop and ReplayOpenLoop dispatches at trace-recorded
// arrival times across host queues, the paper's §4.1 evaluation setup.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"leaftl/internal/addr"
)

// Op is a request direction.
type Op byte

// Request directions.
const (
	OpRead  Op = 'R'
	OpWrite Op = 'W'
)

// Request is one block I/O request in page units. Arrival is the
// request's submission time relative to the start of the trace; a trace
// whose requests all carry zero arrivals is untimed and can only be
// replayed closed-loop.
type Request struct {
	Op      Op
	LPA     addr.LPA
	Pages   int
	Arrival time.Duration
}

// String renders the request in native trace-file syntax (the timed
// four-field form when the request carries an arrival).
func (r Request) String() string {
	if r.Arrival != 0 {
		return fmt.Sprintf("%c,%d,%d,%d", r.Op, r.LPA, r.Pages, r.Arrival.Nanoseconds())
	}
	return fmt.Sprintf("%c,%d,%d", r.Op, r.LPA, r.Pages)
}

// Timed reports whether any request in the trace carries a nonzero
// arrival timestamp.
func Timed(reqs []Request) bool {
	for _, r := range reqs {
		if r.Arrival != 0 {
			return true
		}
	}
	return false
}

// Write streams requests in untimed native syntax ("R,<lpa>,<pages>"),
// dropping arrival timestamps. Use Encode with FormatNative to preserve
// them.
func Write(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	for _, r := range reqs {
		if _, err := fmt.Fprintf(bw, "%c,%d,%d\n", r.Op, r.LPA, r.Pages); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a native-format trace. Blank lines and lines starting with
// '#' are skipped. Both the three-field untimed and four-field timed
// line forms are accepted.
func Parse(r io.Reader) ([]Request, error) {
	return decodeLines(r, "trace", parseNativeLine)
}

// decodeLines runs a per-line decoder over r, skipping blanks and
// '#'-comments and prefixing errors with the line number. Decoders
// return ok=false to skip a non-request line (e.g. a CSV header).
func decodeLines(r io.Reader, what string, line func(string) (Request, bool, error)) ([]Request, error) {
	var out []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		req, ok, err := line(text)
		if err != nil {
			return nil, fmt.Errorf("%s: line %d: %w", what, lineNo, err)
		}
		if ok {
			out = append(out, req)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return out, nil
}

func parseNativeLine(line string) (Request, bool, error) {
	parts := strings.Split(line, ",")
	if len(parts) != 3 && len(parts) != 4 {
		return Request{}, false, fmt.Errorf("want 3 or 4 fields, got %d", len(parts))
	}
	opStr := strings.TrimSpace(parts[0])
	var op Op
	switch opStr {
	case "R", "r":
		op = OpRead
	case "W", "w":
		op = OpWrite
	default:
		return Request{}, false, fmt.Errorf("bad op %q", opStr)
	}
	lpa, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 32)
	if err != nil {
		return Request{}, false, fmt.Errorf("bad lpa: %w", err)
	}
	pages, err := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err != nil {
		return Request{}, false, fmt.Errorf("bad page count: %w", err)
	}
	if pages <= 0 {
		return Request{}, false, fmt.Errorf("page count %d not positive", pages)
	}
	req := Request{Op: op, LPA: addr.LPA(lpa), Pages: pages}
	if len(parts) == 4 {
		ns, err := strconv.ParseInt(strings.TrimSpace(parts[3]), 10, 64)
		if err != nil {
			return Request{}, false, fmt.Errorf("bad arrival: %w", err)
		}
		if ns < 0 {
			return Request{}, false, fmt.Errorf("arrival %dns negative", ns)
		}
		req.Arrival = time.Duration(ns)
	}
	return req, true, nil
}
