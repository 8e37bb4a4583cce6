package main

import (
	"fmt"

	"leaftl/internal/experiments"
)

// tortureJSON is the machine-readable form of one torture + fault-sweep
// run.
type tortureJSON struct {
	Mode   string                    `json:"mode"`
	Scale  string                    `json:"scale"`
	Seed   int64                     `json:"seed"`
	Cells  []experiments.TortureCell `json:"cells"`
	Faults []experiments.FaultRun    `json:"fault_sweep"`
}

// runTorture is the leaftl-bench reliability mode: the seeded
// crash-torture matrix (mapping budgets × the paper and full presets,
// each cell crash-killed, recovered and differentially verified)
// followed by the aged-device fault-injection sweep over -fault-rber.
func runTorture(scale experiments.Scale, crashPoints int, faultRBER string, gamma int, seed int64, markdown bool, jsonPath string) error {
	rbers, err := parseFloatList(faultRBER)
	if err != nil {
		return fmt.Errorf("torture: -fault-rber: %w", err)
	}
	s := experiments.NewSuite(scale, seed)
	cells, tortureTable, err := s.Torture(experiments.TortureSpec{CrashPoints: crashPoints, Gamma: gamma})
	if err != nil {
		return err
	}
	faults, faultTable, err := s.FaultSweep(experiments.FaultSweepSpec{RBERs: rbers, Gamma: gamma})
	if err != nil {
		return err
	}
	printTable(tortureTable, markdown)
	printTable(faultTable, markdown)
	if jsonPath == "" {
		return nil
	}
	return writeJSON(jsonPath, tortureJSON{Mode: "torture", Scale: scale.Name, Seed: seed, Cells: cells, Faults: faults})
}
