package server

import (
	"bytes"
	"context"
	"fmt"
	"time"

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

func (sp *experimentSpec) run(s *Server) (runFunc, error) {
	e, ok := s.cfg.Lookup(sp.ID)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q; GET /v1/experiments lists the registry", sp.ID)
	}
	return s.experimentRun(e, sp.Quick), nil
}

// dirtbusterSpec is the POST /v1/dirtbuster body.
type dirtbusterSpec struct {
	Workload string `json:"workload"`
	Quick    bool   `json:"quick"`
}

func (sp *dirtbusterSpec) normalize() error { return nil }

func (sp *dirtbusterSpec) run(s *Server) (runFunc, error) {
	wl, ok := s.lookupWorkload(sp.Workload, sp.Quick)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q; GET /v1/workloads lists them", sp.Workload)
	}
	return s.dirtbusterRun(wl), nil
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

func (sp *traceSpec) run(s *Server) (runFunc, error) {
	// Trace recordings always use smoke-sized workloads, like
	// prestore-trace: full traces of full-size workloads are huge.
	wl, ok := s.lookupWorkload(sp.Workload, true)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q; GET /v1/workloads lists them", sp.Workload)
	}
	return s.traceRun(wl, *sp), nil
}

// experimentRun builds the run function for an experiment job: the
// bench runner's single-experiment harness (panic containment,
// timeout, cooperative cancellation, SimOps accounting), streaming
// output into the progress log as rows are produced. The output bytes
// are exactly what bench.RunOne writes for the same experiment, which
// is what the golden-determinism guard asserts.
func (s *Server) experimentRun(e bench.Experiment, quick bool) runFunc {
	return func(ctx context.Context, j *job) bench.Result {
		r, _ := bench.RunOneGuarded(ctx, j.out, e, bench.RunnerConfig{
			Quick:   quick,
			Timeout: s.cfg.JobTimeout,
		})
		return r
	}
}

// analysisRun wraps a DirtBuster or trace analysis in the same
// guarded shape as an experiment run: panic containment, wall-time and
// SimOps accounting, cancellation labeling. The analyses themselves
// are single pipeline stages over a private simulated machine, so
// cancellation is observed between stages rather than mid-simulation.
// The body receives the job so it can attach artifacts. SimOps comes
// from a per-run counter the body's machines attach to via the
// context, so concurrent jobs never inflate each other's counts.
func analysisRun(id, title string, timeout time.Duration,
	body func(ctx context.Context, j *job, out *bytes.Buffer) error) runFunc {
	return func(ctx context.Context, j *job) bench.Result {
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		var ops sim.OpsCounter
		ctx = sim.WithOpsSink(ctx, &ops)
		var out bytes.Buffer
		start := time.Now()
		errText := func() (errText string) {
			defer func() {
				if r := recover(); r != nil {
					errText = fmt.Sprintf("panic: %v", r)
				}
			}()
			if err := ctx.Err(); err != nil {
				return fmt.Sprintf("cancelled: %v", err)
			}
			if err := body(ctx, j, &out); err != nil {
				return err.Error()
			}
			return ""
		}()
		res := bench.Result{ID: id, Title: title, Err: errText}
		res.WallTime = time.Since(start)
		res.SimOps = ops.Total()
		if sec := res.WallTime.Seconds(); sec > 0 {
			res.SimOpsPerSec = float64(res.SimOps) / sec
		}
		res.Output = out.String()
		j.out.Write(out.Bytes())
		return res
	}
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

// dirtbusterRun builds the run function for a DirtBuster analysis job.
func (s *Server) dirtbusterRun(wl dirtbuster.Workload) runFunc {
	return analysisRun("dirtbuster/"+wl.Name, "DirtBuster analysis of "+wl.Name, s.cfg.JobTimeout,
		func(ctx context.Context, _ *job, out *bytes.Buffer) error {
			wl := attachOps(ctx, wl)
			rep := dirtbuster.Analyze(wl, dirtbuster.Config{})
			fmt.Fprintln(out, rep.Render())
			return nil
		})
}

// traceRun builds the run function for a trace-analysis job: record
// the workload's full operation trace, then analyze the recording
// offline per spec.Mode. Cancellation is checked between the record
// and analyze stages.
func (s *Server) traceRun(wl dirtbuster.Workload, spec traceSpec) runFunc {
	mode := spec.Mode
	return analysisRun("trace/"+mode+"/"+wl.Name, "trace analysis ("+mode+") of "+wl.Name, s.cfg.JobTimeout,
		func(ctx context.Context, _ *job, out *bytes.Buffer) error {
			wl := attachOps(ctx, wl)
			tb, line := dirtbuster.Record(wl)
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
		})
}
