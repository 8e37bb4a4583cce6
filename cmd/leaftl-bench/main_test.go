package main

import (
	"reflect"
	"strings"
	"testing"

	"leaftl/internal/experiments"
)

func TestParseLists(t *testing.T) {
	for _, tc := range []struct {
		in      string
		ints    []int
		floats  []float64
		intErr  bool
		fltsErr bool
	}{
		{in: "", ints: nil, floats: nil},
		{in: "1, 2,4", ints: []int{1, 2, 4}, floats: []float64{1, 2, 4}},
		{in: "0,0.25", intErr: true, floats: []float64{0, 0.25}},
		{in: "1,,2", ints: []int{1, 2}, floats: []float64{1, 2}},
		{in: "1,x", intErr: true, fltsErr: true},
		{in: "half", intErr: true, fltsErr: true},
	} {
		ints, err := parseIntList(tc.in)
		if (err != nil) != tc.intErr || !reflect.DeepEqual(ints, tc.ints) {
			t.Errorf("parseIntList(%q) = %v, %v", tc.in, ints, err)
		}
		floats, err := parseFloatList(tc.in)
		if (err != nil) != tc.fltsErr || !reflect.DeepEqual(floats, tc.floats) {
			t.Errorf("parseFloatList(%q) = %v, %v", tc.in, floats, err)
		}
	}
}

func TestSelectFigures(t *testing.T) {
	all, err := selectFigures("")
	if err != nil || len(all) != len(experiments.Figures) {
		t.Fatalf("no -only: %d figures, err %v; want all %d", len(all), err, len(experiments.Figures))
	}
	// An alias selects its entry once, and entries keep print order.
	got, err := selectFigures("fig16b, fig5,fig16a")
	if err != nil || len(got) != 2 || got[0].IDs[0] != "fig5" || got[1].IDs[0] != "fig16" {
		t.Fatalf("selectFigures(fig16b, fig5,fig16a) = %v, %v; want fig5 then fig16", got, err)
	}
	if _, err := selectFigures("fig15,fig99"); err == nil || !strings.Contains(err.Error(), `"fig99"`) {
		t.Errorf("unknown ID: err %v, want one naming fig99", err)
	}
}

// TestModeErrorsNameTheirModeOnce: main prints "leaftl-bench: " and
// the error, so every -cells and -torture error, a bad list flag's
// included, must name its mode once.
func TestModeErrorsNameTheirModeOnce(t *testing.T) {
	spec, err := cellsSpec("", "", "0.2", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, badList := cellsSpec("", "", "0,x", "", "", 0)
	for _, tc := range []struct {
		mode string
		err  error
	}{
		{"cells", badList},
		{"cells", runCells(experiments.MicroScale(), spec, 1, false, "")}, // over the micro pool
		{"torture", runTorture(experiments.MicroScale(), 1, "1e-7,x", 0, 1, false, "")},
	} {
		if tc.err == nil {
			t.Errorf("%s: no error", tc.mode)
			continue
		}
		msg := tc.err.Error()
		if !strings.HasPrefix(msg, tc.mode+": ") || strings.Count(msg, tc.mode+":") != 1 {
			t.Errorf("%s error %q: want it to start with %q and name the mode once", tc.mode, msg, tc.mode+": ")
		}
	}
}
