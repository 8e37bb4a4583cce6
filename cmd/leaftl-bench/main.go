// Command leaftl-bench regenerates the paper's evaluation tables and
// figures on the simulated SSD (deliverable d). By default it runs at
// quick scale; -full uses a larger scaled device and -micro the fastest
// CI-smoke scale.
// Two modes skip the figures. -cells runs the evaluation grid: every
// scheme × workload × mapping-DRAM budget × queues × speedup cell is
// replayed open-loop at issue time on its own warmed device, one table
// row and one JSON object per cell. -torture runs the
// seeded crash-torture matrix (kill-recover-verify across mapping
// budgets × the paper and full cell presets) plus an aged-device
// fault-injection sweep over -fault-rber; both use -seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"leaftl/internal/experiments"
	"leaftl/internal/profile"
)

func main() {
	full := flag.Bool("full", false, "run at full (slower) scale")
	only := flag.String("only", "", "comma-separated figure IDs to run (e.g. fig15,fig16)")
	seed := flag.Int64("seed", 1, "workload generation seed")
	markdown := flag.Bool("markdown", false, "emit Markdown tables instead of ASCII")
	gamma := flag.Int("gamma", 0, "LeaFTL error bound for the -cells and -torture modes")
	jsonOut := flag.String("json", "", "-cells and -torture modes: write JSON results to this file (- for stdout)")
	micro := flag.Bool("micro", false, "run at micro (fastest, CI smoke) scale")
	cells := flag.Bool("cells", false, "cell grid mode: replay every -schemes × -workloads × -budgets × -queues × -speedup cell open-loop at issue time (skips figures)")
	schemes := flag.String("schemes", "", "-cells mode: comma-separated schemes: full, paper, dftl, sftl (default all four)")
	workloads := flag.String("workloads", "", "-cells mode: comma-separated timed workloads (zipf-hot, mixed-rw) or trace files (default zipf-hot)")
	budgets := flag.String("budgets", "", "-cells mode: comma-separated DRAM budgets: the mapping+cache pool as a fraction of the 8 B/LPA page map, the same for every scheme and at most the scale's pool; 0 = the scale's pool (default 0)")
	queues := flag.String("queues", "", "-cells mode: comma-separated host queue counts (default 4)")
	speedup := flag.String("speedup", "", "-cells mode: comma-separated divisors of recorded inter-arrival times (default 1)")
	torture := flag.Bool("torture", false, "reliability mode: seeded crash-torture matrix + fault-injection sweep (skips figures)")
	crashPoints := flag.Int("crash-points", 0, "-torture mode: crashes injected per matrix cell (0 = default 5)")
	faultRBER := flag.String("fault-rber", "", "-torture mode: comma-separated base RBERs for the fault sweep (default: 1e-7,1e-5,5e-5,1e-4,5e-4)")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	// Profiles cover whichever mode runs; a run that exits on an error
	// leaves them unwritten.
	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "leaftl-bench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: %v\n", err)
			os.Exit(1)
		}
	}()

	scaleOf := func() experiments.Scale {
		switch {
		case *full:
			return experiments.FullScale()
		case *micro:
			return experiments.MicroScale()
		default:
			return experiments.QuickScale()
		}
	}

	if *cells {
		spec, err := cellsSpec(*schemes, *workloads, *budgets, *queues, *speedup, *gamma)
		if err == nil {
			err = runCells(scaleOf(), spec, *seed, *markdown, *jsonOut)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: cells: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *torture {
		if err := runTorture(scaleOf(), *crashPoints, *faultRBER, *gamma, *seed, *markdown, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: torture: %v\n", err)
			os.Exit(1)
		}
		return
	}

	figures, err := selectFigures(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leaftl-bench: %v\n", err)
		os.Exit(1)
	}
	scale := scaleOf()
	s := experiments.NewSuite(scale, *seed)
	start := time.Now()
	for _, f := range figures {
		tables, err := f.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: %s: %v\n", f.IDs[0], err)
			os.Exit(1)
		}
		for _, t := range tables {
			printTable(t, *markdown)
		}
	}
	fmt.Fprintf(os.Stderr, "leaftl-bench: completed in %v (scale=%s)\n", time.Since(start).Round(time.Millisecond), scale.Name)
}

// selectFigures returns the experiments.Figures entries that list an ID
// of the comma-separated -only value, in print order; an empty value
// selects them all. An ID no entry lists is an error.
func selectFigures(only string) ([]experiments.Figure, error) {
	ids := parseList(only)
	if len(ids) == 0 {
		return experiments.Figures, nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var out []experiments.Figure
	for _, f := range experiments.Figures {
		picked := false
		for _, id := range f.IDs {
			picked = picked || want[id]
			delete(want, id)
		}
		if picked {
			out = append(out, f)
		}
	}
	for _, id := range ids {
		if want[id] {
			return nil, fmt.Errorf("-only: unknown figure ID %q", id)
		}
	}
	return out, nil
}

// cellsSpec parses the -cells list flags.
func cellsSpec(schemes, workloads, budgets, queues, speedup string, gamma int) (experiments.CellsSpec, error) {
	spec := experiments.CellsSpec{Schemes: parseList(schemes), Workloads: parseList(workloads), Gamma: gamma}
	var errs [3]error
	spec.Budgets, errs[0] = parseFloatList(budgets)
	spec.Queues, errs[1] = parseIntList(queues)
	spec.Speedups, errs[2] = parseFloatList(speedup)
	return spec, errors.Join(errs[:]...)
}

// cellsJSON is the machine-readable form of one -cells run.
type cellsJSON struct {
	Mode  string                `json:"mode"`
	Scale string                `json:"scale"`
	Seed  int64                 `json:"seed"`
	Gamma int                   `json:"gamma"`
	Cells []experiments.CellRun `json:"cells"`
}

// runCells is the leaftl-bench -cells mode.
func runCells(scale experiments.Scale, spec experiments.CellsSpec, seed int64, markdown bool, jsonPath string) error {
	runs, table, err := experiments.NewSuite(scale, seed).Cells(spec)
	if err != nil {
		return err
	}
	printTable(table, markdown)
	if jsonPath == "" {
		return nil
	}
	return writeJSON(jsonPath, cellsJSON{Mode: "cells", Scale: scale.Name, Seed: seed, Gamma: spec.Gamma, Cells: runs})
}

// printTable prints a table as ASCII or Markdown.
func printTable(t experiments.Table, markdown bool) {
	if markdown {
		fmt.Println(t.Markdown())
	} else {
		fmt.Println(t.String())
	}
}

// writeJSON writes v as indented JSON to path, or to stdout for "-".
func writeJSON(path string, v any) error {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// parseList splits a comma-separated flag value.
func parseList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// parseIntList splits a comma-separated list of integers.
func parseIntList(v string) ([]int, error) {
	var out []int
	for _, s := range parseList(v) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", s, v)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFloatList splits a comma-separated list of floats.
func parseFloatList(v string) ([]float64, error) {
	var out []float64
	for _, s := range parseList(v) {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q in %q", s, v)
		}
		out = append(out, f)
	}
	return out, nil
}
