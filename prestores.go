// Package prestores is a library-scale reproduction of "Pre-Stores:
// Proactive Software-guided Movement of Data Down the Memory Hierarchy"
// (Wu, Lepers, Zwaenepoel — EuroSys 2025).
//
// A pre-store is the converse of a pre-fetch: an instruction that
// asynchronously moves data *down* the memory hierarchy. Two operations
// exist: Demote pushes data out of private CPU buffers and upper cache
// levels so it becomes globally visible early (cldemote / dc cvau), and
// Clean writes dirty data back to memory while keeping it cached
// (clwb). A third treatment, skipping the cache with non-temporal
// stores, is expressed by writing through Core.WriteNT.
//
// Because the paper's mechanisms live below the ISA (store buffers,
// replacement policies, device write granularities), the library ships
// a deterministic software-timed machine model: byte-accurate simulated
// memory, set-associative caches with realistic replacement, a
// coherence directory that can live on the memory device, and device
// models for DRAM, Optane-style persistent memory (256 B internal
// granularity) and CXL/FPGA-attached memory. Two machine presets mirror
// the paper's testbeds:
//
//	m := prestores.NewMachineA()     // x86 + Optane PMEM
//	m := prestores.NewMachineBFast() // ARM + low-latency FPGA memory
//	m := prestores.NewMachineBSlow() // ARM + high-latency FPGA memory
//
// A minimal use:
//
//	m := prestores.NewMachineA()
//	cpu := m.Core(0)
//	buf := m.Alloc(prestores.WindowPMEM, "data", 1<<20)
//	cpu.Write(buf.Base, payload)
//	cpu.Prestore(buf.Base, uint64(len(payload)), prestores.Clean)
//
// The DirtBuster tool (Analyze) discovers where pre-stores help: it
// samples a workload to find its write-intensive functions, traces them
// to detect sequential writes and writes-before-fences, computes
// re-read/re-write distances, and recommends demote, clean, skip, or
// nothing per function.
package prestores

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/bench"
	"prestores/internal/dirtbuster"
	"prestores/internal/memdev"
	"prestores/internal/memspace"
	"prestores/internal/sim"
)

// Core simulator surface. These are aliases so the methods documented
// on the internal types are directly available to users of this
// package.
type (
	// Machine is a complete simulated system: cores, caches, coherence
	// directory, write-back queue, memory devices, and the
	// byte-addressable backing store.
	Machine = sim.Machine
	// Core is one simulated CPU core: loads, stores, non-temporal
	// stores, fences, atomics and pre-stores.
	Core = sim.Core
	// MachineConfig describes a machine; use NewMachine for custom
	// topologies.
	MachineConfig = sim.Config
	// MachineBConfig parameterizes Machine B's FPGA memory: unloaded
	// access latency in CPU cycles and link bandwidth in bytes per
	// second. Pass it to NewMachineB, or use MachineBFastConfig /
	// MachineBSlowConfig for the paper's two tunings as full
	// MachineConfig values.
	MachineBConfig = sim.MachineBConfig
	// Region is an allocated range of simulated physical memory.
	Region = memspace.Region
	// PrestoreOp selects the pre-store operation.
	PrestoreOp = sim.PrestoreOp
	// Device is a memory device model (DRAM, PMEM, remote).
	Device = memdev.Device
	// Event is one simulated operation, delivered to instrumentation
	// hooks (Machine.SetHook).
	Event = sim.Event
	// OpKind identifies a simulated operation in an Event.
	OpKind = sim.OpKind
)

// Pre-store operations (paper §2).
const (
	// Demote moves data down the cache hierarchy and publishes pending
	// private writes — cldemote on x86, dc cvau on ARM.
	Demote = sim.Demote
	// Clean writes dirty data back to memory, keeping it cached — clwb.
	Clean = sim.Clean
)

// Standard memory-window names used by the machine presets.
const (
	WindowDRAM   = sim.WindowDRAM
	WindowPMEM   = sim.WindowPMEM
	WindowRemote = sim.WindowRemote
)

// NewMachineA returns the paper's Machine A: a 2.1 GHz x86 socket with
// eager (TSO) store-buffer draining and Optane persistent memory whose
// internal write granularity (256 B) exceeds the CPU line size (64 B).
// Pre-stores help here by restoring the sequentiality of write-backs.
func NewMachineA() *Machine { return sim.MachineA() }

// NewMachineBFast returns the paper's Machine B with the low-latency
// FPGA configuration (60-cycle access, 10 GB/s): an ARM machine with a
// weak memory model whose coherence directory lives on the device.
// Pre-stores help here by publishing writes before fences need them.
func NewMachineBFast() *Machine { return sim.MachineBFast() }

// NewMachineBSlow returns Machine B with the high-latency FPGA
// configuration (200-cycle access, 1.5 GB/s).
func NewMachineBSlow() *Machine { return sim.MachineBSlow() }

// NewMachine builds a machine from a custom configuration. See
// MachineAConfig / MachineBFastConfig / MachineBSlowConfig below for
// starting points.
func NewMachine(cfg MachineConfig) *Machine { return sim.NewMachine(cfg) }

// NewMachineB builds Machine B with a custom FPGA tuning: the ARM
// testbed of NewMachineBFast / NewMachineBSlow with the remote memory's
// latency and bandwidth set from bc.
func NewMachineB(bc MachineBConfig) *Machine { return sim.MachineB(bc) }

// MachineAConfig returns Machine A's configuration for customization.
func MachineAConfig() MachineConfig { return sim.ConfigA() }

// MachineBFastConfig returns Machine B's low-latency FPGA configuration
// (60-cycle access, 10 GB/s) for customization.
func MachineBFastConfig() MachineConfig { return sim.ConfigBFast() }

// MachineBSlowConfig returns Machine B's high-latency FPGA
// configuration (200-cycle access, 1.5 GB/s) for customization.
func MachineBSlowConfig() MachineConfig { return sim.ConfigBSlow() }

// MachineBConfigFor returns Machine B's configuration for an arbitrary
// FPGA tuning, for customization beyond the two paper presets.
func MachineBConfigFor(bc MachineBConfig) MachineConfig { return sim.ConfigB(bc) }

// Prestore issues a pre-store over [addr, addr+size) on cpu. It is
// equivalent to cpu.Prestore and exists to mirror the paper's free
// function prestore(location, size, op).
func Prestore(cpu *Core, addr, size uint64, op PrestoreOp) {
	cpu.Prestore(addr, size, op)
}

// DirtBuster surface.
type (
	// Workload is an application DirtBuster can analyze.
	Workload = dirtbuster.Workload
	// AnalysisConfig tunes DirtBuster's thresholds; the zero value uses
	// the defaults from the paper's description.
	AnalysisConfig = dirtbuster.Config
	// Report is DirtBuster's output: write-intensity, per-function
	// sequentiality contexts, fence distances, and pre-store
	// recommendations. Render prints it in the paper's format.
	Report = dirtbuster.Report
)

// Analyze runs the DirtBuster pipeline (sampling, instrumentation,
// distance analysis, recommendation) on a workload.
func Analyze(w Workload, cfg AnalysisConfig) *Report {
	return dirtbuster.Analyze(w, cfg)
}

// Experiment-harness surface. Every table and figure of the paper is a
// registered experiment; this is the same registry cmd/prestore-bench
// sweeps and the prestored daemon serves over HTTP.
type (
	// Experiment is one registered paper experiment (a table or figure).
	Experiment = bench.Experiment
	// ExperimentResult records one experiment execution: wall time,
	// simulated-op throughput, the full captured output, and the
	// failure (panic, timeout or cancellation) if it did not complete.
	ExperimentResult = bench.Result
)

// Experiments returns the registered experiments in ID order.
func Experiments() []Experiment { return bench.All() }

// LookupExperiment finds a registered experiment by ID.
func LookupExperiment(id string) (Experiment, bool) { return bench.Lookup(id) }

// RunExperiment executes one registered experiment under the guarded
// harness — panic containment and cooperative cancellation — streaming
// its human-readable output to w as it is produced (w may be nil).
// Quick shrinks sweeps to smoke size. Cancelling ctx stops the
// experiment at its next iteration boundary; that and any panic are
// reported in the result's Err field, not the returned error, which is
// reserved for the first write error w reported. The complete output
// is always available in the result regardless of w.
func RunExperiment(ctx context.Context, w io.Writer, id string, quick bool) (ExperimentResult, error) {
	e, ok := bench.Lookup(id)
	if !ok {
		return ExperimentResult{}, fmt.Errorf("prestores: unknown experiment %q", id)
	}
	return bench.RunGuarded(ctx, w, e.ID, e.Title, 0, func(ctx context.Context, w io.Writer) error {
		return bench.RunOne(ctx, w, e, quick)
	})
}
