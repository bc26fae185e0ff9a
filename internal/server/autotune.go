package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"prestores/internal/autotune"
	"prestores/internal/scenario"
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

func (b *evalSpec) run(*Server) (work, error) { return evalWork(b.sp, b.Quick), nil }

// evalWork is an eval job. The result's Output is exactly the metrics
// map as canonical JSON (sorted keys) plus a newline —
// machine-consumable, byte-stable, cache-friendly.
func evalWork(sp scenario.Spec, quick bool) work {
	name := sp.Workload.Name
	return work{"eval/" + name, "single-point evaluation of " + name,
		func(ctx context.Context, _ *job, out io.Writer) error {
			m, err := sp.EvalPoint(ctx, quick)
			if err != nil {
				return err
			}
			b, err := json.Marshal(m)
			if err != nil {
				return err
			}
			_, err = out.Write(append(b, '\n'))
			return err
		}}
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

func (b *autotuneSpec) run(s *Server) (work, error) { return s.autotuneWork(b.sp, b.par), nil }

// autotuneWork is an autotuning search job. Each NDJSON progress event
// the engine emits is job output, so it reaches any attached stream as
// it happens. The full trajectory and the winner summary become job
// artifacts.
func (s *Server) autotuneWork(sp scenario.Spec, par autotune.Params) work {
	name := sp.Workload.Name
	return work{"autotune/" + name, "autotuning search over " + name,
		func(ctx context.Context, j *job, progress io.Writer) error {
			res, err := autotune.Run(ctx, sp, par, s.evaluator(), progress)
			if err != nil {
				return err
			}
			traj, err := res.Trajectory.JSON()
			if err != nil {
				return err
			}
			j.setArtifact("trajectory", traj)
			winner, err := json.MarshalIndent(res.Trajectory.Winner, "", "  ")
			if err != nil {
				return err
			}
			j.setArtifact("winner", append(winner, '\n'))
			s.m.autotuneSearches.Inc()
			s.m.autotuneEvals.Add(uint64(res.Trajectory.Evals))
			if res.Trajectory.Converged {
				s.m.autotuneConverged.Inc()
			}
			return nil
		}}
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
