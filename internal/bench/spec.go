package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"prestores/internal/scenario"
)

// Most named experiments are thin instantiations of declarative
// scenario specs: registerSpec registers an Experiment whose Run is the
// scenario grid runner. The golden-output guards (golden_test.go) pin
// them to the byte-exact tables their earlier hand-written loops
// produced.
//
// Five experiments stay code because their tables are not one sweep of
// one workload rendered in the column formats: table1 lists device
// properties without running anything, listing3 prints one row per
// variant with a fixed "1.0x" baseline and a whole-number slowdown,
// overhead prints three differently shaped sub-tables, table2 runs
// DirtBuster over a heterogeneous application set, and fig9 compares
// checksums across runs and scales each NAS kernel separately in quick
// mode.

// specs maps each spec-driven experiment to its spec in decoded
// canonical form — the bytes -dump-spec prints — so running a dumped
// spec is the same run as the named experiment by construction, down
// to the warm-state keys. The form is built on first use: decoding and
// validating every spec at init would add milliseconds to the start-up
// of every process that links this package.
var specs = map[string]func() (scenario.Spec, error){}

func registerSpec(in scenario.Spec) {
	decoded := sync.OnceValues(func() (scenario.Spec, error) {
		canon, err := in.Canonical()
		if err != nil {
			return scenario.Spec{}, err
		}
		return scenario.Decode(canon)
	})
	specs[in.Name] = decoded
	register(Experiment{
		ID:    in.Name,
		Title: in.Title,
		Paper: in.Paper,
		// Spec errors panic into the runner's panic containment: a
		// registered spec only fails on a contradiction in its own
		// definition, which is a programming error here.
		Run: func(ctx context.Context, w io.Writer, quick bool) {
			s, err := decoded()
			if err == nil {
				err = s.Exec(ctx, w, quick)
			}
			if err != nil {
				panic(fmt.Sprintf("bench: spec %s: %v", in.Name, err))
			}
		},
	})
}

// RunSpec validates and runs an ad-hoc declarative scenario spec with
// the standard experiment header — the entry point for `prestore-bench
// -spec file.json` and the daemon's /v1/scenarios jobs. Output for a
// spec dumped from a named experiment is byte-identical to running
// that experiment through RunOne.
func RunSpec(ctx context.Context, w io.Writer, s scenario.Spec, quick bool) error {
	if err := s.Validate(); err != nil {
		return err
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	title := s.Title
	if title == "" {
		title = "custom scenario"
	}
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "\n=== %s: %s ===\n", name, title)
	if s.Paper != "" {
		fmt.Fprintf(ew, "paper: %s\n", s.Paper)
	}
	if ew.err == nil && !cancelled(ctx) {
		if err := s.Exec(ctx, ew, quick); err != nil && ew.err == nil {
			return err
		}
	}
	return ew.err
}

// SpecFor returns the declarative spec behind a named experiment, for
// -dump-spec. Experiments that are not spec-driven report false.
func SpecFor(id string) (scenario.Spec, bool) {
	decoded, ok := specs[id]
	if !ok {
		return scenario.Spec{}, false
	}
	s, err := decoded()
	if err != nil {
		panic(fmt.Sprintf("bench: spec %s: %v", id, err))
	}
	return s, true
}

// SpecIDs returns the IDs of all spec-driven experiments, sorted.
func SpecIDs() []string {
	ids := make([]string, 0, len(specs))
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func init() {
	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "fig3",
		Title:   "Listing 1 on Machine A: clean pre-store speedup and write amplification",
		Paper:   "Fig 3: up to 3x speedup at 5 threads; amp 1.8x (1 thread) / 3.3x (2+ threads) -> 1.0 with cleaning",
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{
			Name:   "listing1",
			Params: map[string]any{"volume": 48 << 20, "reread": true, "seed": 42},
		},
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "clean"},
			Axes: []scenario.Axis{
				{Param: "threads", Values: []any{1, 2, 5}, Quick: []any{1, 2}},
				{Param: "elem_size", Values: []any{256, 1024, 4096}, Quick: []any{1024}},
			},
			Columns: []scenario.Column{
				{Title: "threads", Axis: "threads"},
				{Title: "elem", Axis: "elem_size", Format: "bytes"},
				{Title: "base cyc/op", Op: "none", Metric: "elapsed_per_op", Format: "f0"},
				{Title: "base amp", Op: "none", Metric: "write_amp", Format: "f2"},
				{Title: "clean amp", Op: "clean", Metric: "write_amp", Format: "f2"},
				{Title: "speedup", Op: "none", Metric: "elapsed", DenOp: "clean", Format: "x2"},
			},
		},
		Run: scenario.RunSpec{Quick: map[string]any{"volume": 12 << 20}},
	})

	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "skipvsclean",
		Title:   "Listing 1 variants: when to skip vs clean",
		Paper:   "Section 5: with the re-read, skipping is 2x slower than cleaning; without it, skipping wins",
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{
			Name:   "listing1",
			Params: map[string]any{"elem_size": 256, "threads": 2, "volume": 48 << 20, "seed": 42},
		},
		Policy: scenario.PolicySpec{
			Ops: []string{"clean", "skip"},
			Axes: []scenario.Axis{
				{Param: "reread", Values: []any{true, false}},
			},
			Columns: []scenario.Column{
				{Title: "re-read?", Axis: "reread"},
				{Title: "clean cyc/op", Op: "clean", Metric: "elapsed_per_op", Format: "f0"},
				{Title: "skip cyc/op", Op: "skip", Metric: "elapsed_per_op", Format: "f0"},
				{Title: "skip/clean", Op: "skip", Metric: "elapsed_per_op", DenOp: "clean", Format: "x2"},
			},
		},
		Run: scenario.RunSpec{Quick: map[string]any{"volume": 12 << 20}},
	})

	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "fig5",
		Title:   "Listing 2 on Machine B: demote pre-store vs reads-before-fence",
		Paper:   "Fig 5: up to 65% faster; no gain at 0 reads; fast FPGA peaks earlier than slow FPGA",
		Workload: scenario.WorkloadSpec{
			Name:   "listing2",
			Params: map[string]any{"elements": 100000, "iters": 20000, "seed": 7},
		},
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "demote"},
			Axes: []scenario.Axis{
				{Param: "machine", Values: []any{"machine-b-fast", "machine-b-slow"},
					Labels: []string{"B-fast", "B-slow"}},
				{Param: "reads", Values: []any{0, 5, 10, 20, 40, 80, 160, 320},
					Quick: []any{0, 20, 80, 320}},
			},
			Columns: []scenario.Column{
				{Title: "machine", Axis: "machine"},
				{Title: "reads", Axis: "reads"},
				{Title: "base cyc", Op: "none", Metric: "cycles_per_iter", Format: "f0"},
				{Title: "demote cyc", Op: "demote", Metric: "cycles_per_iter", Format: "f0"},
				{Title: "improvement", Op: "none", Metric: "cycles_per_iter", DenOp: "demote", Format: "pct"},
			},
		},
		Run: scenario.RunSpec{Quick: map[string]any{"iters": 5000}},
	})

	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "ext-cxlssd",
		Title:   "Extension: Listing 1 on Machine C (x86 + CXL SSD, 512B pages)",
		Paper:   "Beyond the paper's testbeds: Table 1 lists CXL SSDs at 256-512B; with 512B pages the worst-case amplification doubles to 8x and cleaning still removes it",
		Machine: scenario.MachineSpec{Preset: "machine-c"},
		Workload: scenario.WorkloadSpec{
			Name:   "listing1",
			Params: map[string]any{"threads": 2, "volume": 24 << 20, "reread": true, "seed": 42},
		},
		Policy: scenario.PolicySpec{
			Ops:    []string{"none", "clean"},
			Window: "cxlssd",
			Axes: []scenario.Axis{
				{Param: "elem_size", Values: []any{512, 2048, 8192}, Quick: []any{2048}},
			},
			Columns: []scenario.Column{
				{Title: "elem", Axis: "elem_size", Format: "bytes"},
				{Title: "base amp", Op: "none", Metric: "write_amp", Format: "f2"},
				{Title: "clean amp", Op: "clean", Metric: "write_amp", Format: "f2"},
				{Title: "speedup", Op: "none", Metric: "elapsed", DenOp: "clean", Format: "x2"},
			},
		},
		Run: scenario.RunSpec{Quick: map[string]any{"volume": 8 << 20}},
	})

	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "ext-seqlog",
		Title:   "Extension: sequential-by-design writers still amplify",
		Paper:   "§8: data structures written in long sequential strides get no hardware eviction-order guarantee; DirtBuster/pre-stores enforce it",
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{
			Name:   "listing1",
			Params: map[string]any{"elem_size": 1024, "threads": 2, "volume": 48 << 20, "reread": true, "seed": 42},
		},
		Policy: scenario.PolicySpec{
			Axes: []scenario.Axis{
				{Param: "sequential", Values: []any{false, true}, Labels: []string{"random", "sequential"}},
				{Param: "op", Values: []any{"none", "clean"}, Labels: []string{"baseline", "clean"}},
			},
			Columns: []scenario.Column{
				{Title: "writer", Axis: "sequential"},
				{Title: "mode", Axis: "op"},
				{Title: "cyc/op", Metric: "elapsed_per_op", Format: "f0"},
				{Title: "write amp", Metric: "write_amp", Format: "f2"},
			},
			Footer: []string{
				"(even a perfectly sequential application write stream amplifies at the",
				" device until cleans enforce the eviction order)",
			},
		},
		Run: scenario.RunSpec{Quick: map[string]any{"volume": 12 << 20}},
	})

	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "x9",
		Title:   "X9 message passing latency on Machine B",
		Paper:   "Section 7.3.2: demote cuts message latency 62% (B-fast) / 40% (B-slow)",
		Workload: scenario.WorkloadSpec{
			Name:   "x9",
			Params: map[string]any{"iters": 20000, "msg_size": 512, "seed": 3},
		},
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "demote"},
			Axes: []scenario.Axis{
				{Param: "machine", Values: []any{"machine-b-fast", "machine-b-slow"},
					Labels: []string{"B-fast", "B-slow"}},
			},
			Columns: []scenario.Column{
				{Title: "machine", Axis: "machine"},
				{Title: "base lat", Op: "none", Metric: "latency_cyc", Format: "cyc0"},
				{Title: "demote lat", Op: "demote", Metric: "latency_cyc", Format: "cyc0"},
				{Title: "reduction", Op: "demote", Metric: "latency_cyc", DenOp: "none", Format: "drop0"},
			},
		},
		Run: scenario.RunSpec{Quick: map[string]any{"iters": 4000}},
	})

	// The tensor-training proxy (fig7, fig8).
	tensorSpec := func(name, title, paper string, ops []string, cols []scenario.Column) scenario.Spec {
		return scenario.Spec{
			Version: 1, Name: name, Title: title, Paper: paper,
			Machine: scenario.MachineSpec{Preset: "machine-a"},
			Workload: scenario.WorkloadSpec{
				Name:   "tensor-train",
				Params: map[string]any{"features": 2048, "steps": 2},
			},
			Policy: scenario.PolicySpec{
				Ops: ops,
				Axes: []scenario.Axis{
					{Param: "batch", Values: []any{1, 8, 32, 64, 128, 250}, Quick: []any{1, 32}},
				},
				Columns: append([]scenario.Column{{Title: "batch", Axis: "batch"}}, cols...),
			},
			Run: scenario.RunSpec{Quick: map[string]any{"features": 1024, "steps": 1}},
		}
	}
	registerSpec(tensorSpec("fig7",
		"TensorFlow training proxy on Machine A: clean vs skip, batch-size sweep",
		"Fig 7: clean +47% at batch 1 dropping to +20% at large batches; skip loses ~20%",
		[]string{"none", "clean", "skip"},
		[]scenario.Column{
			{Title: "base Mcyc", Op: "none", Metric: "elapsed", Format: "mcyc"},
			{Title: "clean gain", Op: "none", Metric: "elapsed", DenOp: "clean", Format: "pct"},
			{Title: "skip gain", Op: "none", Metric: "elapsed", DenOp: "skip", Format: "pct"},
		}))
	registerSpec(tensorSpec("fig8",
		"TensorFlow training proxy on Machine A: write amplification",
		"Fig 8: cleaning lowers amplification from ~3.7x to ~2.7x (only one function patched)",
		[]string{"none", "clean"},
		[]scenario.Column{
			{Title: "base amp", Op: "none", Metric: "write_amp", Format: "f2"},
			{Title: "clean amp", Op: "clean", Metric: "write_amp", Format: "f2"},
		}))

	// YCSB over the key-value stores (fig10-fig14, ycsb-mixes,
	// kv-threads), sized per DESIGN.md §6. Every grid point with the same
	// store, machine and value size forks from one warm load checkpoint.
	kvSpec := func(name, title, paper, preset string, params map[string]any, policy scenario.PolicySpec) scenario.Spec {
		p := map[string]any{"records": 400000, "ops": 6000, "threads": 10, "seed": 99}
		for k, v := range params {
			p[k] = v
		}
		return scenario.Spec{
			Version: 1, Name: name, Title: title, Paper: paper,
			Machine:  scenario.MachineSpec{Preset: preset},
			Workload: scenario.WorkloadSpec{Name: "ycsb", Params: p},
			Policy:   policy,
			Run:      scenario.RunSpec{Quick: map[string]any{"records": 100000, "ops": 1500}},
		}
	}
	valueSizes := scenario.Axis{Param: "value_size", Values: []any{64, 128, 256, 1024, 4096}, Quick: []any{256, 1024}}
	throughput := scenario.PolicySpec{
		Ops:  []string{"none", "clean", "skip"},
		Axes: []scenario.Axis{valueSizes},
		Columns: []scenario.Column{
			{Title: "value", Axis: "value_size", Format: "bytes"},
			{Title: "baseline", Op: "none", Metric: "ops_per_sec", Format: "mops"},
			{Title: "clean", Op: "clean", Metric: "ops_per_sec", Format: "mops"},
			{Title: "clean gain", Op: "clean", Metric: "ops_per_sec", DenOp: "none", Format: "x2"},
			{Title: "skip", Op: "skip", Metric: "ops_per_sec", Format: "mops"},
			{Title: "skip gain", Op: "skip", Metric: "ops_per_sec", DenOp: "none", Format: "x2"},
		},
	}
	registerSpec(kvSpec("fig10", "CLHT, YCSB-A on Machine A: throughput vs value size",
		"Fig 10: skip up to 2.9x, clean up to 2.3x over baseline",
		"machine-a", map[string]any{"store": "clht"}, throughput))
	registerSpec(kvSpec("fig11", "Masstree, YCSB-A on Machine A: throughput vs value size",
		"Fig 11: skip up to 2.5x, clean up to 1.9x over baseline",
		"machine-a", map[string]any{"store": "masstree"}, throughput))
	registerSpec(kvSpec("fig12", "CLHT, YCSB-A on Machine A: write amplification vs value size",
		"Fig 12: baseline ~3.8x at >=256B values; skip and clean eliminate it",
		"machine-a", map[string]any{"store": "clht"},
		scenario.PolicySpec{
			Ops:  []string{"none", "clean", "skip"},
			Axes: []scenario.Axis{valueSizes},
			Columns: []scenario.Column{
				{Title: "value", Axis: "value_size", Format: "bytes"},
				{Title: "base amp", Op: "none", Metric: "write_amp", Format: "f2"},
				{Title: "clean amp", Op: "clean", Metric: "write_amp", Format: "f2"},
				{Title: "skip amp", Op: "skip", Metric: "write_amp", Format: "f2"},
			},
		}))
	// On ARM the "clean" patch compiles to dc cvau, which Machine B
	// models via CleanToPOU (paper §2 / §7.3.1).
	machineB := scenario.PolicySpec{
		Ops:    []string{"none", "clean"},
		Window: "fpga",
		Axes: []scenario.Axis{
			{Param: "machine", Values: []any{"machine-b-fast", "machine-b-slow"},
				Labels: []string{"B-fast", "B-slow"}},
		},
		Columns: []scenario.Column{
			{Title: "machine", Axis: "machine"},
			{Title: "baseline", Op: "none", Metric: "ops_per_sec", Format: "mops"},
			{Title: "clean", Op: "clean", Metric: "ops_per_sec", Format: "mops"},
			{Title: "improvement", Op: "clean", Metric: "ops_per_sec", DenOp: "none", Format: "pct"},
		},
	}
	registerSpec(kvSpec("fig13", "CLHT, YCSB-A (1KB values) on Machine B fast/slow",
		"Fig 13: cleaning (dc cvau -> demote to L2) 52% faster on B-fast",
		"", map[string]any{"store": "clht", "value_size": 1024}, machineB))
	registerSpec(kvSpec("fig14", "Masstree, YCSB-A (1KB values) on Machine B fast/slow",
		"Fig 14: cleaning 25% faster",
		"", map[string]any{"store": "masstree", "value_size": 1024}, machineB))
	cleanGain := func(axis scenario.Axis, cols ...scenario.Column) scenario.PolicySpec {
		return scenario.PolicySpec{
			Ops:  []string{"none", "clean"},
			Axes: []scenario.Axis{axis},
			Columns: append(cols,
				scenario.Column{Title: "baseline", Op: "none", Metric: "ops_per_sec", Format: "mops"},
				scenario.Column{Title: "clean", Op: "clean", Metric: "ops_per_sec", Format: "mops"},
				scenario.Column{Title: "clean gain", Op: "clean", Metric: "ops_per_sec", DenOp: "none", Format: "pct"},
			),
		}
	}
	registerSpec(kvSpec("ycsb-mixes",
		"CLHT on Machine A across YCSB mixes: pre-store gains track the write ratio",
		"Section 7.2.3: read-only/read-mostly workloads (YCSB B-D) do not benefit from pre-storing",
		"machine-a", map[string]any{"store": "clht", "value_size": 1024},
		cleanGain(scenario.Axis{Param: "mix", Values: []any{"A", "B", "C", "F"}},
			scenario.Column{Title: "mix", Axis: "mix"},
			scenario.Column{Title: "write ratio", Axis: "mix", Labels: []string{"50%", "5%", "0%", "50%"}})))
	registerSpec(kvSpec("kv-threads",
		"CLHT YCSB-A (1KB) on Machine A: thread scaling of baseline and clean",
		"Section 7.2.3 injects load with 10 threads, 'the configuration that provides the highest throughput'; the clean advantage requires enough threads to pressure the device",
		"machine-a", map[string]any{"store": "clht", "value_size": 1024},
		cleanGain(scenario.Axis{Param: "threads", Values: []any{1, 2, 5, 10}, Quick: []any{2, 10}},
			scenario.Column{Title: "threads", Axis: "threads"})))

	// Ablations of the two problems' causes (DESIGN.md), sweeping one
	// machine-config field or device parameter.
	listing2Ablation := func(name, title, paper, preset string, axes []scenario.Axis, cols []scenario.Column) scenario.Spec {
		return scenario.Spec{
			Version: 1, Name: name, Title: title, Paper: paper,
			Machine: scenario.MachineSpec{Preset: preset},
			Workload: scenario.WorkloadSpec{
				Name:   "listing2",
				Params: map[string]any{"elements": 100000, "reads": 80, "iters": 20000, "seed": 7},
			},
			Policy: scenario.PolicySpec{
				Ops:  []string{"none", "demote"},
				Axes: axes,
				Columns: append(cols,
					scenario.Column{Title: "base cyc", Op: "none", Metric: "cycles_per_iter", Format: "f0"},
					scenario.Column{Title: "demote cyc", Op: "demote", Metric: "cycles_per_iter", Format: "f0"},
					scenario.Column{Title: "improvement", Op: "none", Metric: "cycles_per_iter", DenOp: "demote", Format: "pct"},
				),
			},
			Run: scenario.RunSpec{Quick: map[string]any{"iters": 5000}},
		}
	}
	registerSpec(listing2Ablation("ablate-drain",
		"Ablation: store-buffer drain mode (Problem #2's cause)",
		"DESIGN.md #1: with an eager (x86-style) drain, demote pre-stores should stop helping on Machine B",
		"machine-b-fast",
		[]scenario.Axis{
			{Param: "config.drain", Values: []any{"lazy", "eager"}},
			{Param: "reads", Values: []any{20, 80}},
		},
		[]scenario.Column{{Title: "drain", Axis: "config.drain"}, {Title: "reads", Axis: "reads"}}))
	registerSpec(listing2Ablation("ablate-dir",
		"Ablation: directory location (on-device vs on-die)",
		"DESIGN.md #4: an on-die directory removes the state-change round trip from both columns; the residual demote win is the overlapped data read",
		"machine-b-slow",
		[]scenario.Axis{
			{Param: "config.dir_on_device", Values: []any{true, false}, Labels: []string{"on-device", "on-die"}},
		},
		[]scenario.Column{{Title: "directory", Axis: "config.dir_on_device"}}))

	// Listing 1 ablations and extensions on Machine A (as fig3, 1 KiB
	// elements, two threads, with the re-read).
	listing1 := func(name, title, paper string, policy scenario.PolicySpec) scenario.Spec {
		return scenario.Spec{
			Version: 1, Name: name, Title: title, Paper: paper,
			Machine: scenario.MachineSpec{Preset: "machine-a"},
			Workload: scenario.WorkloadSpec{
				Name:   "listing1",
				Params: map[string]any{"elem_size": 1024, "threads": 2, "volume": 48 << 20, "reread": true, "seed": 42},
			},
			Policy: policy,
			Run:    scenario.RunSpec{Quick: map[string]any{"volume": 12 << 20}},
		}
	}
	registerSpec(listing1("ablate-llc",
		"Ablation: LLC replacement policy (Problem #1's cause)",
		"DESIGN.md #2: strict LRU should lower the baseline's write amplification vs QLRU/random",
		scenario.PolicySpec{
			Ops: []string{"none", "clean"},
			Axes: []scenario.Axis{
				{Param: "config.llc.policy", Values: []any{"QLRU", "PLRU", "LRU", "Random", "SRRIP"}},
			},
			Columns: []scenario.Column{
				{Title: "llc policy", Axis: "config.llc.policy"},
				{Title: "base amp", Op: "none", Metric: "write_amp", Format: "f2"},
				{Title: "clean amp", Op: "clean", Metric: "write_amp", Format: "f2"},
				{Title: "speedup", Op: "none", Metric: "elapsed", DenOp: "clean", Format: "x2"},
			},
		}))
	registerSpec(listing1("ablate-pmembuf",
		"Ablation: PMEM internal write-buffer capacity",
		"DESIGN.md #3: a smaller coalescing window raises baseline amplification; cleaning stays at 1.0",
		scenario.PolicySpec{
			Ops: []string{"none", "clean"},
			Axes: []scenario.Axis{
				{Param: "devices.pmem.buffer_entries", Values: []any{8, 32, 128}},
			},
			Columns: []scenario.Column{
				{Title: "buf entries", Axis: "devices.pmem.buffer_entries"},
				{Title: "base amp", Op: "none", Metric: "write_amp", Format: "f2"},
				{Title: "clean amp", Op: "clean", Metric: "write_amp", Format: "f2"},
			},
		}))
	registerSpec(listing1("ext-prefetch",
		"Extension: hardware prefetching is orthogonal to pre-storing",
		"Intro/§8: pre-fetching moves data up; it cannot fix the write-back ordering of Problem #1 — only pre-stores do",
		scenario.PolicySpec{
			Axes: []scenario.Axis{
				{Param: "config.prefetch_depth", Values: []any{0, 2}, Labels: []string{"off", "next-2"}},
				{Param: "op", Values: []any{"none", "clean"}, Labels: []string{"baseline", "clean"}},
			},
			Columns: []scenario.Column{
				{Title: "prefetch", Axis: "config.prefetch_depth"},
				{Title: "mode", Axis: "op"},
				{Title: "cyc/op", Metric: "elapsed_per_op", Format: "f0"},
				{Title: "write amp", Metric: "write_amp", Format: "f2"},
			},
			Footer: []string{"(prefetching cannot lower the baseline's amplification; cleaning can)"},
		}))
}
