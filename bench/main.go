// Command bench is the repository's one canonical benchmark: four aged-device
// workloads, a simulated and a host clock, and per-layer numbers from a
// separate traced run. README.md in this directory says what every number
// means; BENCHMARK.json at the root of the repository names them.
//
// The driver's form runs one workload and prints one JSON object last:
//
//	bench --workload zipf-read --seed 1 --seconds 18 --trace 0
//
// The suite's forms run all four workloads, untraced and traced:
//
//	bench -out results.json            one pass per seed
//	bench -check -seed 1,2 -out f.json  two passes per seed, which must agree
//	bench -compare old.json new.json   judge new against old, exit 1 on regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "run this one workload and print the driver's JSON line")
	seedList := flag.String("seed", "1", "workload seed; the suite takes a comma-separated list")
	seconds := flag.Int("seconds", refSeconds, "how long one run measures; request counts scale with it")
	traced := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	scaleName := flag.String("scale", "std", "std is the frozen reference; tiny is for the tests")
	out := flag.String("out", "", "suite: write every result to this file")
	check := flag.Bool("check", false, "suite: run every seed twice and require the passes to agree")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	desc := flag.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	flag.Parse()

	if *desc {
		data, _ := json.MarshalIndent(describe(), "", "  ")
		fmt.Println(string(data))
		return
	}
	if err := run(*workload, *seedList, *seconds, *traced, *scaleName, *out, *check, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload, seedList string, seconds, traced int, scaleName, out string, check, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if compare {
		return runCompare(root, args)
	}
	sc, ok := scales[scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q", scaleName)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	var seeds []int64
	for _, f := range strings.Split(seedList, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("--seed %q: %w", seedList, err)
		}
		seeds = append(seeds, s)
	}
	outDir := filepath.Join(root, "bench", "out")

	if workload != "" {
		sp, ok := specByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		if len(seeds) != 1 {
			return fmt.Errorf("--workload takes one seed, got %q", seedList)
		}
		var res *result
		if traced == 1 {
			res = runTraced(sp, sc, seeds[0], seconds, outDir)
		} else {
			res = runUntraced(sp, sc, seeds[0], seconds)
		}
		return report(res)
	}

	file := newOutFile(sc, seconds)
	failed := false
	passes := []string{"a"}
	if check {
		passes = []string{"a", "b"}
	}
	for _, seed := range seeds {
		for _, pass := range passes {
			s := set{Seed: seed, Repeat: pass}
			for _, sp := range specs {
				for _, res := range []*result{runUntraced(sp, sc, seed, seconds), runTraced(sp, sc, seed, seconds, outDir)} {
					printResult(os.Stdout, res)
					if m := missing(res); res.Correct && len(m) > 0 {
						res.fail(fmt.Errorf("metrics not reported: %v", m))
					}
					failed = failed || !res.Correct
					s.Runs = append(s.Runs, res)
				}
			}
			file.Sets = append(file.Sets, s)
		}
	}
	if out != "" {
		if err := file.write(out); err != nil {
			return err
		}
	}
	if check {
		if err := checkPasses(root, file.Sets); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a workload failed; see FAILED above")
	}
	return nil
}

// report prints a single run the way the driver reads it.
func report(res *result) error {
	printResult(os.Stdout, res)
	if m := missing(res); res.Correct && len(m) > 0 {
		return fmt.Errorf("metrics not reported: %v", m)
	}
	if !res.Correct {
		return fmt.Errorf("%s: %s", res.Workload, res.Error)
	}
	line, err := driverLine(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkPasses holds the two passes of -check against each other: simulated
// metrics and digests must be identical; a host metric that differs by more
// than its bound between two passes of the same code is reported unresolved.
func checkPasses(root string, sets []set) error {
	b, err := loadBenchmark(root)
	if err != nil {
		return err
	}
	a, second := splitRepeats(sets)
	var diffs []string
	for i := range a {
		diffs = append(diffs, identical(a[i], second[i])...)
	}
	rows, failedMore := compareSets(b, a, second, true)
	fmt.Println()
	printRows(os.Stdout, rows)
	for _, d := range diffs {
		fmt.Println("not identical:", d)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("check: %d simulated values or digests differ between two passes over the same seed", len(diffs))
	}
	if failedMore {
		return fmt.Errorf("check: the second pass failed more operations than the first")
	}
	unresolved := 0
	for _, r := range rows {
		if r.verdict == verdictUnresolved {
			unresolved++
		}
	}
	fmt.Printf("check: simulated metrics and digests identical; %d host metrics beyond their bound between the passes (noise: the code is the same)\n", unresolved)
	return nil
}

func runCompare(root string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d arguments", len(args))
	}
	b, err := loadBenchmark(root)
	if err != nil {
		return err
	}
	old, err := readOutFile(args[0])
	if err != nil {
		return err
	}
	oldSets, newSets := old.Sets, old.Sets
	sameCode := args[0] == args[1]
	if sameCode {
		// One -check file against itself: its first pass is the base, its
		// second the candidate.
		oldSets, newSets = splitRepeats(old.Sets)
	} else {
		nw, err := readOutFile(args[1])
		if err != nil {
			return err
		}
		newSets = nw.Sets
	}
	rows, regressed := compareSets(b, oldSets, newSets, sameCode)
	printRows(os.Stdout, rows)
	if len(rows) == 0 {
		return fmt.Errorf("compare: the files share no seed")
	}
	if regressed {
		return fmt.Errorf("compare: regression (see the REGRESSION rows)")
	}
	return nil
}
