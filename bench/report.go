package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDesc `json:"workloads"`
	EndToEnd   []def          `json:"end_to_end"`
	PerLayer   []def          `json:"per_layer"` // no bound: the key is omitted
}

type workloadDesc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// describe renders BENCHMARK.json from the tables this program runs by,
// so the file and the program cannot name different things.
func describe() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: refSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, sp := range specs {
		b.Workloads = append(b.Workloads, workloadDesc{Name: sp.name, Why: sp.why})
	}
	return b
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the program is started from the root by the driver and
// from bench/ by go run -C bench.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadBenchmark(root string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

// set is one complete pass over the suite for one seed: an untraced and a
// traced run of every workload.
type set struct {
	Seed   int64     `json:"seed"`
	Repeat string    `json:"repeat"` // "a", or "b" for the second pass of -check
	Runs   []*result `json:"runs"`
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Scale   string `json:"scale"`
	Seconds int    `json:"seconds"`
	Go      string `json:"go"`
	CPUs    int    `json:"cpus"`
	Sets    []set  `json:"sets"`
}

func newOutFile(sc scale, seconds int) *outFile {
	return &outFile{Scale: sc.name, Seconds: seconds, Go: runtime.Version(), CPUs: runtime.NumCPU()}
}

func (f *outFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readOutFile(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// find returns the run of a workload in a set.
func (s *set) find(workload string, traced bool) *result {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// printResult lists every metric of a run by name, with its unit, clock
// and the number of samples behind it.
func printResult(w io.Writer, r *result) {
	kind := "end-to-end (untraced)"
	defs := endToEnd
	if r.Traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s\n", r.Workload, r.Seed, kind)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s missing\n", d.Name)
			continue
		}
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-9s %-5s %s\n", d.Name, m.Value, m.Unit, d.Clock, samples)
	}
	fmt.Fprintf(w, "  %-34s %16.6g %-9s       n=%d\n", "failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), "fraction", r.Attempted)
	if r.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", r.Error)
	}
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
func driverLine(r *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, m := range r.Metrics {
		if !finite(m.Value) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
		out.Metrics[name] = value{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// missing lists the metrics a run should have reported and did not.
func missing(r *result) []string {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	var names []string
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; !ok || !finite(m.Value) || m.Unit == "" {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	return names
}
