package main

import (
	"encoding/json"
	"fmt"
	"os"

	"leaftl/internal/experiments"
)

// tortureJSON is the machine-readable form of one torture + fault-sweep
// run (scripts/torture.sh stitches it into BENCH_PR<N>.json).
type tortureJSON struct {
	Mode         string            `json:"mode"`
	Scale        string            `json:"scale"`
	Seed         int64             `json:"seed"`
	FaultSeed    int64             `json:"fault_seed"`
	CrashPoints  int               `json:"crash_points_per_cell"`
	TotalCrashes int               `json:"total_crashes"`
	Points       map[string]int    `json:"crash_point_histogram"`
	Cells        []tortureCellJSON `json:"cells"`
	Faults       []faultRunJSON    `json:"fault_sweep"`
}

// tortureCellJSON is one budget × bitmap cell.
type tortureCellJSON struct {
	Budget           float64        `json:"budget"`
	Bitmap           bool           `json:"bitmap"`
	Seed             int64          `json:"seed"`
	Crashes          int            `json:"crashes"`
	Points           map[string]int `json:"points"`
	MappingsRebuilt  int            `json:"mappings_rebuilt"`
	MappingsRestored int            `json:"mappings_restored"`
	VerifiedLPAs     int            `json:"verified_lpas"`
	BufferedLost     int            `json:"buffered_lost"`
}

// faultRunJSON is one RBER point of the aged-device reliability sweep.
type faultRunJSON struct {
	RBER             float64 `json:"rber"`
	Seed             int64   `json:"seed"`
	CorrectedReads   uint64  `json:"corrected_reads"`
	ECCRetries       uint64  `json:"ecc_retries"`
	DataUECC         uint64  `json:"data_uecc"`
	OOBUECC          uint64  `json:"oob_uecc"`
	HostUECCs        uint64  `json:"host_ueccs"`
	OOBReconstructed uint64  `json:"oob_reconstructed"`
	ScrubRelocations uint64  `json:"scrub_relocations"`
	RetiredBlocks    uint64  `json:"retired_blocks"`
	GCDataLoss       uint64  `json:"gc_data_loss"`
	ProgramFails     uint64  `json:"program_fails"`
	EraseFails       uint64  `json:"erase_fails"`
	WAF              float64 `json:"waf"`
}

// runTorture is the leaftl-bench reliability mode: the seeded
// crash-torture matrix (mapping budgets × bitmap, each
// cell crash-killed, recovered and differentially verified) followed by
// the aged-device fault-injection sweep over -fault-rber.
func runTorture(scale experiments.Scale, crashPoints int, faultRBER string, faultSeed int64, scrubThreshold int, gamma int, seed int64, markdown bool, jsonPath string) error {
	rbers, err := parseFloatList(faultRBER)
	if err != nil {
		return err
	}
	if faultSeed == 0 {
		faultSeed = seed
	}

	s := experiments.NewSuite(scale, seed)
	cells, tortureTable, err := s.Torture(experiments.TortureSpec{
		CrashPoints: crashPoints,
		Gamma:       gamma,
	})
	if err != nil {
		return err
	}
	fs := experiments.NewSuite(scale, faultSeed)
	spec := experiments.FaultSweepSpec{RBERs: rbers, Gamma: gamma}
	if scrubThreshold > 0 {
		spec.ScrubDisturbReads = uint32(scrubThreshold)
	}
	faults, faultTable, err := fs.FaultSweep(spec)
	if err != nil {
		return err
	}

	for _, t := range []experiments.Table{tortureTable, faultTable} {
		if markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}

	if jsonPath == "" {
		return nil
	}
	out := tortureJSON{
		Mode: "torture", Scale: scale.Name, Seed: seed, FaultSeed: faultSeed,
		Points: make(map[string]int),
	}
	for _, c := range cells {
		if out.CrashPoints == 0 {
			out.CrashPoints = crashPoints
		}
		out.TotalCrashes += c.Crashes
		for p, n := range c.Points {
			out.Points[p] += n
		}
		out.Cells = append(out.Cells, tortureCellJSON{
			Budget: c.Budget, Bitmap: c.Bitmap, Seed: c.Seed,
			Crashes: c.Crashes, Points: c.Points,
			MappingsRebuilt: c.MappingsRebuilt, MappingsRestored: c.MappingsRestored,
			VerifiedLPAs: c.VerifiedLPAs, BufferedLost: c.BufferedLost,
		})
	}
	for _, r := range faults {
		out.Faults = append(out.Faults, faultRunJSON{
			RBER: r.RBER, Seed: r.Seed,
			CorrectedReads:   r.Flash.CorrectedReads,
			ECCRetries:       r.Flash.ECCRetries,
			DataUECC:         r.Flash.DataUECC,
			OOBUECC:          r.Flash.OOBUECC,
			HostUECCs:        r.HostUECCs,
			OOBReconstructed: r.Stats.OOBReconstructed,
			ScrubRelocations: r.Stats.ScrubRelocations,
			RetiredBlocks:    r.Stats.RetiredBlocks,
			GCDataLoss:       r.Stats.GCDataLoss,
			ProgramFails:     r.Flash.ProgramFails,
			EraseFails:       r.Flash.EraseFails,
			WAF:              r.WAF,
		})
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if jsonPath == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(jsonPath, enc, 0o644)
}
