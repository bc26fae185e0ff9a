package bench

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/workloads/nas"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "NAS kernels on Machine A: normalized runtime with clean pre-stores",
		Paper: "Fig 9: MG/FT/SP/UA/BT up to 40% faster; lower is better",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "overhead",
		Title: "Pre-store overhead when not needed (Section 7.4)",
		Paper: "NAS/tensor cleans on Machine B <=0.3% overhead; FT fftz2 manual clean ~3x slowdown; IS rank: no effect",
		Run:   runOverhead,
	})
}

func nasKernels(quick bool) []nas.Kernel {
	if quick {
		return []nas.Kernel{nas.MG, nas.BT}
	}
	return []nas.Kernel{nas.MG, nas.FT, nas.SP, nas.UA, nas.BT, nas.IS}
}

func runFig9(ctx context.Context, w io.Writer, quick bool) {
	scenario.WriteRow(w, "kernel", "base amp", "clean amp", "norm runtime", "cksum ok")
	for _, k := range nasKernels(quick) {
		if cancelled(ctx) {
			return
		}
		cfg := nas.Config{Kernel: k, Iters: 1, Seed: 3}
		if quick {
			cfg.Scale = quickScale(k)
		}
		cfg.Mode = nas.Baseline
		base := nas.Run(sim.MachineA().AttachOps(ctx), cfg)
		cfg.Mode = nas.Clean
		clean := nas.Run(sim.MachineA().AttachOps(ctx), cfg)
		scenario.WriteRow(w, string(k),
			scenario.FormatCell("f2", base.WriteAmp),
			scenario.FormatCell("f2", clean.WriteAmp),
			scenario.FormatCell("f2", float64(clean.Elapsed)/float64(base.Elapsed)),
			fmt.Sprint(base.Checksum == clean.Checksum))
	}
}

// quickScale shrinks each kernel for smoke runs.
func quickScale(k nas.Kernel) int {
	switch k {
	case nas.MG, nas.SP:
		return 64
	case nas.BT:
		return 40
	case nas.FT:
		return 32
	case nas.UA:
		return 1 << 14
	case nas.IS:
		return 1 << 17
	default:
		return 0
	}
}

func runOverhead(ctx context.Context, w io.Writer, quick bool) {
	// 1. DirtBuster-recommended cleans on Machine B, where neither
	// mechanism applies (no write amplification on the FPGA, NAS uses
	// no fences): overhead should be negligible.
	fmt.Fprintln(w, "-- recommended pre-stores on the wrong machine (B-fast): overhead --")
	scenario.WriteRow(w, "kernel", "base Mcyc", "clean Mcyc", "overhead")
	for _, k := range []nas.Kernel{nas.MG, nas.SP} {
		if cancelled(ctx) {
			return
		}
		cfg := nas.Config{Kernel: k, Iters: 1, Seed: 3, Window: sim.WindowRemote}
		if quick {
			cfg.Scale = quickScale(k)
		}
		cfg.Mode = nas.Baseline
		base := nas.Run(sim.MachineBFast().AttachOps(ctx), cfg)
		cfg.Mode = nas.Clean
		clean := nas.Run(sim.MachineBFast().AttachOps(ctx), cfg)
		scenario.WriteRow(w, string(k),
			scenario.FormatCell("mcyc", float64(base.Elapsed)),
			scenario.FormatCell("mcyc", float64(clean.Elapsed)),
			scenario.FormatCell("pct", float64(clean.Elapsed)/float64(base.Elapsed)))
	}

	// 2. FT's fftz2: manually cleaning the hot in-cache scratch that
	// DirtBuster refuses to recommend (write-back per rewrite).
	if cancelled(ctx) {
		return
	}
	fmt.Fprintln(w, "-- FT fftz2: manual clean of the hot scratch (the trap) --")
	ftCfg := nas.Config{Kernel: nas.FT, Iters: 1, Seed: 3}
	if quick {
		ftCfg.Scale = quickScale(nas.FT)
	}
	ftCfg.Mode = nas.Baseline
	ftBase := nas.Run(sim.MachineA().AttachOps(ctx), ftCfg)
	ftCfg.Mode = nas.CleanHot
	ftHot := nas.Run(sim.MachineA().AttachOps(ctx), ftCfg)
	scenario.WriteRow(w, "variant", "Mcyc", "slowdown")
	scenario.WriteRow(w, "baseline", scenario.FormatCell("mcyc", float64(ftBase.Elapsed)), "1.0x")
	scenario.WriteRow(w, "clean fftz2", scenario.FormatCell("mcyc", float64(ftHot.Elapsed)),
		scenario.FormatCell("x2", float64(ftHot.Elapsed)/float64(ftBase.Elapsed)))

	// 3. IS rank: small random writes, neither re-read nor sequential;
	// a clean is useless but also (nearly) free.
	if cancelled(ctx) {
		return
	}
	fmt.Fprintln(w, "-- IS rank: manual clean of random small writes (no effect expected) --")
	isCfg := nas.Config{Kernel: nas.IS, Iters: 1, Seed: 3}
	if quick {
		isCfg.Scale = quickScale(nas.IS)
	}
	isCfg.Mode = nas.Baseline
	isBase := nas.Run(sim.MachineA().AttachOps(ctx), isCfg)
	isCfg.Mode = nas.Clean
	isClean := nas.Run(sim.MachineA().AttachOps(ctx), isCfg)
	scenario.WriteRow(w, "variant", "Mcyc", "delta")
	scenario.WriteRow(w, "baseline", scenario.FormatCell("mcyc", float64(isBase.Elapsed)), "")
	scenario.WriteRow(w, "clean", scenario.FormatCell("mcyc", float64(isClean.Elapsed)),
		scenario.FormatCell("pct", float64(isClean.Elapsed)/float64(isBase.Elapsed)))
}
