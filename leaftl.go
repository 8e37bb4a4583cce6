// Package leaftl is the public API of this LeaFTL reproduction (Sun et
// al., "LeaFTL: A Learning-Based Flash Translation Layer for Solid-State
// Drives", ASPLOS 2023).
//
// Three layers are exposed:
//
//   - The learned address-mapping table itself (NewMappingTable): the
//     paper's core contribution, usable standalone as a compressed
//     LPA→PPA index with a configurable error bound γ.
//   - A full simulated SSD (OpenSimulated) with pluggable translation
//     schemes — the learned LeaFTL plus the DFTL and SFTL baselines —
//     including write buffering, data caching, garbage collection, wear
//     leveling, OOB-verified reads and crash recovery.
//   - Workload generation and trace replay (GenerateWorkload, Replay)
//     mirroring the paper's evaluation workloads.
//
// See examples/ for runnable end-to-end programs and cmd/leaftl-bench
// for the harness that regenerates every table and figure of the paper's
// evaluation section.
package leaftl

import (
	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/dftl"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/metrics"
	"leaftl/internal/sftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
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

// Learn fits error-bounded index segments over one sorted batch of
// mappings without inserting them anywhere (paper §3.2).
func Learn(pairs []Mapping, gamma int) []core.Learned { return core.Learn(pairs, gamma) }

// Device is a simulated SSD.
type Device = ssd.Device

// DeviceConfig configures a simulated SSD.
type DeviceConfig = ssd.Config

// Scheme is an address-translation scheme runnable inside a Device.
type Scheme = ftl.Scheme

// SimulatorConfig returns the paper's Table 1 simulator setup, scaled
// down; PrototypeConfig returns the open-channel prototype setup of §3.9.
func SimulatorConfig() DeviceConfig { return ssd.SimulatorConfig() }

// PrototypeConfig returns the real-SSD prototype configuration (§3.9).
func PrototypeConfig() DeviceConfig { return ssd.PrototypeConfig() }

// NewLeaFTL returns the learned translation scheme with the given error
// bound for a device with the given flash page size.
func NewLeaFTL(gamma, pageSize int) *leaftl.Scheme { return leaftl.New(gamma, pageSize) }

// NewDFTL returns the demand-based page-level baseline (§4.1).
func NewDFTL(pageSize, cmtBudget int) Scheme { return dftl.New(pageSize, cmtBudget) }

// NewSFTL returns the spatial-locality baseline (§4.1).
func NewSFTL(pageSize, budget int) Scheme { return sftl.New(pageSize, budget) }

// OpenSimulated builds a simulated SSD running the given scheme.
func OpenSimulated(cfg DeviceConfig, scheme Scheme) (*Device, error) {
	return ssd.New(cfg, scheme)
}

// Request is one block I/O request; Replay applies a trace to a device.
type Request = trace.Request

// Trace request directions.
const (
	OpRead  = trace.OpRead
	OpWrite = trace.OpWrite
)

// Replay applies requests to a device in order (closed loop).
func Replay(d *Device, reqs []Request) error { return trace.Replay(d, reqs) }

// TraceFormat identifies a trace wire format (native, MSR CSV, FIU).
type TraceFormat = trace.Format

// Trace wire formats (see docs/TRACES.md).
const (
	TraceNative = trace.FormatNative
	TraceMSR    = trace.FormatMSR
	TraceFIU    = trace.FormatFIU
)

// OpenTrace reads a trace file, auto-detecting its format.
func OpenTrace(path string) ([]Request, TraceFormat, error) {
	return trace.Open(path, trace.Options{})
}

// OpenLoopConfig parameterizes ReplayOpenLoop; OpenLoopResult holds its
// latency distributions.
type (
	OpenLoopConfig = trace.OpenLoopConfig
	OpenLoopResult = trace.OpenLoopResult
)

// LatencySummary is a histogram tail digest (p50/p95/p99/p999).
type LatencySummary = metrics.Summary

// ReplayOpenLoop replays a trace open-loop on the issue-time schedule
// (trace.ReplayIssued): request i joins host queue i % cfg.Queues and is
// issued at its recorded arrival or when its queue frees up, whichever
// is later, so latency includes queue wait and requests from different
// queues overlap on the flash. The device ends in the state a
// closed-loop Replay of the same trace leaves.
func ReplayOpenLoop(d *Device, reqs []Request, cfg OpenLoopConfig) (*OpenLoopResult, error) {
	return trace.ReplayIssued(d, reqs, cfg)
}

// WorkloadProfile parameterizes a synthetic workload; Workloads and
// AppWorkloads return the paper's two catalogs (§4.1, Table 2).
type WorkloadProfile = workload.Profile

// Workloads returns the MSR/FIU trace-style workload catalog.
func Workloads() []WorkloadProfile { return workload.Catalog() }

// AppWorkloads returns the application workload catalog (Table 2).
func AppWorkloads() []WorkloadProfile { return workload.AppCatalog() }

// WorkloadByName finds a profile in either catalog.
func WorkloadByName(name string) (WorkloadProfile, bool) { return workload.ByName(name) }

// WorkloadGenerator is any workload that can emit a request trace
// (profiles and the timed open-loop generators).
type WorkloadGenerator = workload.Generator

// TimedWorkloads returns the open-loop generators (zipf-hot, mixed-rw),
// which emit traces with arrival timestamps.
func TimedWorkloads() map[string]WorkloadGenerator { return workload.TimedCatalog() }
