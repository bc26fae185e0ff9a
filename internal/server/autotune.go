package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"prestores/internal/autotune"
	"prestores/internal/bench"
	"prestores/internal/scenario"
	"prestores/internal/sim"
)

// evalSpec is the POST /v1/eval body: a single-point scenario spec
// (no sweep axes, exactly one op) evaluated to raw metrics instead of
// a rendered table. This is the autotuner's distributed measurement
// primitive — the cluster coordinator routes candidate plans here.
type evalSpec struct{ scenarioSpec }

func (b *evalSpec) normalize() error {
	if len(b.Spec) == 0 {
		return errors.New("spec: required (a single-point scenario spec object)")
	}
	if err := b.scenarioSpec.normalize(); err != nil {
		return err
	}
	if err := b.sp.CheckSinglePoint(); err != nil {
		return fmt.Errorf("invalid eval spec: %v", err)
	}
	return nil
}

func (b *evalSpec) run(s *Server) (runFunc, error) { return s.evalRun(b.sp, b.Quick), nil }

// evalRun builds the run function for an eval job. The result's Output
// is exactly the metrics map as canonical JSON (sorted keys) plus a
// newline — machine-consumable, byte-stable, cache-friendly.
func (s *Server) evalRun(sp scenario.Spec, quick bool) runFunc {
	name := sp.Workload.Name
	return analysisRun("eval/"+name, "single-point evaluation of "+name, s.cfg.JobTimeout,
		func(ctx context.Context, _ *job, out *bytes.Buffer) error {
			m, err := sp.EvalPoint(ctx, quick)
			if err != nil {
				return err
			}
			b, err := json.Marshal(m)
			if err != nil {
				return err
			}
			out.Write(b)
			out.WriteByte('\n')
			return nil
		})
}

// autotuneSpec is the POST /v1/autotune body: the base single-point
// spec plus the search parameters (inlined; see autotune.Params).
type autotuneSpec struct {
	Spec json.RawMessage `json:"spec"`
	autotune.Params

	sp  scenario.Spec   // Spec decoded, set by normalize
	par autotune.Params // normalized parameters the search runs with
}

// normalize canonicalizes the spec and normalizes the parameters. The
// hashed Params has Parallel zeroed: the search result is independent
// of evaluation concurrency, so requests differing only in parallelism
// share one cache entry.
func (b *autotuneSpec) normalize() error {
	if len(b.Spec) == 0 {
		return errors.New("spec: required (a single-point scenario spec object; the search varies policy.window and policy.table)")
	}
	sp, err := scenario.Decode(b.Spec)
	if err != nil {
		return fmt.Errorf("invalid scenario spec: %v", err)
	}
	par, err := autotune.Normalize(&sp, b.Params)
	if err != nil {
		return fmt.Errorf("invalid autotune request: %v", err)
	}
	canon, err := sp.Canonical()
	if err != nil {
		return fmt.Errorf("invalid scenario spec: %v", err)
	}
	b.Spec, b.sp, b.par = canon, sp, par
	b.Params = par
	b.Params.Parallel = 0
	return nil
}

func (b *autotuneSpec) run(s *Server) (runFunc, error) { return s.autotuneRun(b.sp, b.par), nil }

// autotuneRun builds the run function for an autotuning search job.
// Unlike analysisRun it streams as it goes: each NDJSON progress event
// the engine emits reaches the job's progress log (and any attached
// stream) immediately, not at job completion. The full trajectory and
// the winner summary become job artifacts.
func (s *Server) autotuneRun(sp scenario.Spec, par autotune.Params) runFunc {
	name := sp.Workload.Name
	return func(ctx context.Context, j *job) bench.Result {
		if s.cfg.JobTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
			defer cancel()
		}
		var ops sim.OpsCounter
		ctx = sim.WithOpsSink(ctx, &ops)
		var out bytes.Buffer
		progress := io.MultiWriter(&out, j.out)
		start := time.Now()

		errText := func() (errText string) {
			defer func() {
				if r := recover(); r != nil {
					errText = fmt.Sprintf("panic: %v", r)
				}
			}()
			res, err := autotune.Run(ctx, sp, par, s.evaluator(), progress)
			if err != nil {
				return err.Error()
			}
			traj, err := res.Trajectory.JSON()
			if err != nil {
				return err.Error()
			}
			j.setArtifact("trajectory", traj)
			winner, err := json.MarshalIndent(res.Trajectory.Winner, "", "  ")
			if err != nil {
				return err.Error()
			}
			j.setArtifact("winner", append(winner, '\n'))
			s.m.autotuneSearches.Add(1)
			s.m.autotuneEvals.Add(int64(res.Trajectory.Evals))
			if res.Trajectory.Converged {
				s.m.autotuneConverged.Add(1)
			}
			return ""
		}()

		res := bench.Result{ID: "autotune/" + name, Title: "autotuning search over " + name, Err: errText}
		res.WallTime = time.Since(start)
		res.SimOps = ops.Total()
		if sec := res.WallTime.Seconds(); sec > 0 {
			res.SimOpsPerSec = float64(res.SimOps) / sec
		}
		res.Output = out.String()
		return res
	}
}

// evaluator returns the measurement backend autotune jobs use: the
// configured hook (the cluster coordinator injects a shard fan-out
// evaluator) or in-process evaluation.
func (s *Server) evaluator() autotune.Evaluator {
	if s.cfg.AutotuneEvaluator != nil {
		return s.cfg.AutotuneEvaluator
	}
	return autotune.Local{}
}
