// Package leaftl is the public API of this LeaFTL reproduction (Sun et
// al., "LeaFTL: A Learning-Based Flash Translation Layer for Solid-State
// Drives", ASPLOS 2023).
//
// Two layers are exposed:
//
//   - The learned address-mapping table itself (NewMappingTable): the
//     paper's core contribution, usable standalone as a compressed
//     LPA→PPA index with a configurable error bound γ.
//   - A full simulated SSD (OpenSimulated) running the learned LeaFTL
//     scheme, including write buffering, data caching, garbage
//     collection, wear leveling, OOB-verified reads and crash recovery.
//
// The package's Examples are runnable and checked by go test. The
// DFTL and SFTL baselines, workload generation and trace replay live in
// internal packages; cmd/leaftl-bench drives them to regenerate every
// table and figure of the paper's evaluation section.
package leaftl

import (
	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/ssd"
)

// LPA is a logical page address; PPA is a physical page address.
type (
	LPA = addr.LPA
	PPA = addr.PPA
)

// Mapping is one LPA→PPA translation pair.
type Mapping = addr.Mapping

// MappingTable is the learned log-structured mapping table (paper §3).
type MappingTable = core.Table

// NewMappingTable returns an empty learned mapping table with error
// bound gamma (pages). Feed it sorted batches with Update and translate
// with Lookup; see the package core documentation for semantics.
func NewMappingTable(gamma int) *MappingTable { return core.NewTable(gamma) }

// Device is a simulated SSD.
type Device = ssd.Device

// DeviceConfig configures a simulated SSD.
type DeviceConfig = ssd.Config

// Scheme is an address-translation scheme runnable inside a Device.
type Scheme = ftl.Scheme

// SimulatorConfig returns the paper's Table 1 simulator setup, scaled
// down.
func SimulatorConfig() DeviceConfig { return ssd.SimulatorConfig() }

// NewLeaFTL returns the learned translation scheme with the given error
// bound for a device with the given flash page size.
func NewLeaFTL(gamma, pageSize int) *leaftl.Scheme { return leaftl.New(gamma, pageSize) }

// OpenSimulated builds a simulated SSD running the given scheme.
func OpenSimulated(cfg DeviceConfig, scheme Scheme) (*Device, error) {
	return ssd.New(cfg, scheme)
}
