package server

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/bench"
	"prestores/internal/dirtbuster"
	"prestores/internal/pmcheck"
	"prestores/internal/sim"
)

// experimentSpec is the POST /v1/experiments body. Its JSON encoding
// (fixed field order) is part of the cache key.
type experimentSpec struct {
	ID    string `json:"id"`
	Quick bool   `json:"quick"`
}

func (sp *experimentSpec) normalize() error { return nil }

func (sp *experimentSpec) run(s *Server) (work, error) {
	e, ok := s.cfg.Lookup(sp.ID)
	if !ok {
		return work{}, fmt.Errorf("unknown experiment %q; GET /v1/experiments lists the registry", sp.ID)
	}
	return experimentWork(e, sp.Quick), nil
}

// dirtbusterSpec is the POST /v1/dirtbuster body.
type dirtbusterSpec struct {
	Workload string `json:"workload"`
	Quick    bool   `json:"quick"`
}

func (sp *dirtbusterSpec) normalize() error { return nil }

func (sp *dirtbusterSpec) run(s *Server) (work, error) {
	wl, ok := s.lookupWorkload(sp.Workload, sp.Quick)
	if !ok {
		return work{}, fmt.Errorf("unknown workload %q; GET /v1/workloads lists them", sp.Workload)
	}
	return dirtbusterWork(wl), nil
}

// traceSpec is the POST /v1/trace body: record the named workload's
// operation trace, then analyze it offline. Mode selects the analysis:
// "dirtbuster" (default) for the paper-format report, "report" for the
// perf-report-style per-function time profile, "pmcheck" for the
// persistence checker.
type traceSpec struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	PMBase   uint64 `json:"pm_base,omitempty"`
	PMSize   uint64 `json:"pm_size,omitempty"`
}

// normalize fills the defaults: the DirtBuster mode, and for pmcheck
// prestore-trace's persistent range.
func (sp *traceSpec) normalize() error {
	if sp.Mode == "" {
		sp.Mode = "dirtbuster"
	}
	if sp.Mode == "pmcheck" {
		if sp.PMBase == 0 {
			sp.PMBase = 1 << 40
		}
		if sp.PMSize == 0 {
			sp.PMSize = 256 << 30
		}
	}
	return nil
}

func (sp *traceSpec) run(s *Server) (work, error) {
	// Trace recordings always use smoke-sized workloads, like
	// prestore-trace: full traces of full-size workloads are huge.
	wl, ok := s.lookupWorkload(sp.Workload, true)
	if !ok {
		return work{}, fmt.Errorf("unknown workload %q; GET /v1/workloads lists them", sp.Workload)
	}
	return traceWork(wl, *sp), nil
}

// experimentWork is an experiment job: exactly what bench.RunOne
// writes for the experiment, which is what the golden-determinism guard
// asserts.
func experimentWork(e bench.Experiment, quick bool) work {
	return work{e.ID, e.Title, func(ctx context.Context, _ *job, w io.Writer) error {
		return bench.RunOne(ctx, w, e, quick)
	}}
}

// attachOps returns a copy of wl whose machines report retired ops to
// the context's per-run counter (see sim.WithOpsSink).
func attachOps(ctx context.Context, wl dirtbuster.Workload) dirtbuster.Workload {
	mk := wl.NewMachine
	wl.NewMachine = func() *sim.Machine { return mk().AttachOps(ctx) }
	return wl
}

// lookupWorkload finds a DirtBuster-analyzable workload by name.
func (s *Server) lookupWorkload(name string, quick bool) (dirtbuster.Workload, bool) {
	for _, w := range s.cfg.Workloads(quick) {
		if w.Name == name {
			return w, true
		}
	}
	return dirtbuster.Workload{}, false
}

// dirtbusterWork is a DirtBuster analysis job. The analysis is one
// pipeline stage over a private simulated machine, so it does not
// observe cancellation mid-run.
func dirtbusterWork(wl dirtbuster.Workload) work {
	return work{"dirtbuster/" + wl.Name, "DirtBuster analysis of " + wl.Name,
		func(ctx context.Context, _ *job, w io.Writer) error {
			rep := dirtbuster.Analyze(attachOps(ctx, wl), dirtbuster.Config{})
			fmt.Fprintln(w, rep.Render())
			return nil
		}}
}

// traceWork is a trace-analysis job: record the workload's full
// operation trace, then analyze the recording offline per spec.Mode.
// Cancellation is checked between the record and analyze stages.
func traceWork(wl dirtbuster.Workload, spec traceSpec) work {
	mode := spec.Mode
	return work{"trace/" + mode + "/" + wl.Name, "trace analysis (" + mode + ") of " + wl.Name,
		func(ctx context.Context, _ *job, out io.Writer) error {
			tb, line := dirtbuster.Record(attachOps(ctx, wl))
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("cancelled: %w", err)
			}
			switch mode {
			case "dirtbuster":
				rep := dirtbuster.AnalyzeTrace(wl.Name, tb, line, dirtbuster.Config{})
				fmt.Fprintln(out, rep.Render())
			case "report":
				fmt.Fprintf(out, "%-32s %10s %8s %8s %8s\n", "function", "cycles", "time%", "store%", "ops")
				for _, ft := range tb.TimeByFunction() {
					if ft.Fn == "" {
						ft.Fn = "(untagged)"
					}
					storePct := 0.0
					if ft.Cycles > 0 {
						storePct = 100 * float64(ft.StoreCyc) / float64(ft.Cycles)
					}
					fmt.Fprintf(out, "%-32s %10d %7.1f%% %7.1f%% %8d\n",
						ft.Fn, ft.Cycles, ft.TimeShare*100, storePct, ft.Ops)
				}
			case "pmcheck":
				res := pmcheck.Check(tb, pmcheck.Config{Base: spec.PMBase, Size: spec.PMSize, LineSize: line})
				fmt.Fprintf(out, "pmcheck: %d line-stores checked, %d commits, %d violations\n",
					res.StoresChecked, res.Commits, len(res.Violations))
				for _, v := range res.Violations {
					fmt.Fprintln(out, "  ", v)
				}
			default:
				return fmt.Errorf("unknown trace mode %q (want dirtbuster, report or pmcheck)", mode)
			}
			return nil
		}}
}
