package main

import (
	"fmt"
	"math"
	"reflect"

	"prestores/internal/obs"
)

// rep is one repetition's measurements: the workload's fixed unit of
// work, timed and checked.
type rep struct {
	Traced    bool               `json:"traced"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	JobsS     []float64          `json:"jobs_s"`    // per-job latency
	Attempted int                `json:"attempted"` // jobs and checks attempted
	Failures  []string           `json:"failures"`  // failed jobs and checks
	Digests   []string           `json:"digests"`   // output digests, compared across repetitions
	Counts    simCounts          `json:"counts"`    // exact simulated counters
	Layer     map[string]float64 `json:"layer"`     // measured per-layer values
	Profile   map[string]int64   `json:"profile"`   // traced: CPU samples by package
	Spans     []obs.Span         `json:"spans"`     // traced: spans recorded around layer calls
	Traces    []traceFile        `json:"traces"`    // trace-dirtbuster: files left for the parent's check
}

// fail records a failed job or check.
func (r *rep) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// check counts one attempted check and records it as failed unless ok.
func (r *rep) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// summary is every repetition of one run. Every check, the run-level
// ones included, belongs to a repetition, so a failure always marks one
// repetition as failed.
type summary struct {
	reps      []*rep
	attempted int
	failures  []string
}

func (s *summary) add(r *rep) {
	fmt.Printf("rep %d traced=%v setup %.4fs wall %.4fs rss %.1fMB jobs %d failures %d\n",
		len(s.reps), r.Traced, r.SetupS, r.WallS, r.PeakRSSMB, len(r.JobsS), len(r.Failures))
	s.reps = append(s.reps, r)
	s.attempted += r.Attempted
	s.failures = append(s.failures, r.Failures...)
}

// checkRepeat compares a repetition's output digests and simulated
// counts against the run's first repetition: the same seed must give
// byte-identical output and identical counts.
func checkRepeat(first, r *rep) {
	r.check(reflect.DeepEqual(first.Digests, r.Digests), "output differs from the run's first repetition")
	r.check(first.Counts == r.Counts, "simulated counts differ from the run's first repetition: %+v vs %+v", r.Counts, first.Counts)
}

func (s *summary) pick(traced bool) []*rep {
	var out []*rep
	for _, r := range s.reps {
		if r.Traced == traced && r.WallS > 0 { // a failed child has no timings
			out = append(out, r)
		}
	}
	return out
}

// endToEnd assembles the end-to-end metrics from the untraced
// repetitions. Job latency quantiles are taken within each repetition
// and their median over the repetitions is reported, so one slow
// repetition cannot move them. success_ratio is the share of
// repetitions that passed every check.
func (s *summary) endToEnd() map[string]metric {
	reps := s.pick(false)
	var setup, wall, rss, p50, p90 []float64
	var wallSum float64
	jobs := 0
	for _, r := range reps {
		setup = append(setup, r.SetupS)
		wall = append(wall, r.WallS)
		rss = append(rss, r.PeakRSSMB)
		p50 = append(p50, quantile(r.JobsS, 0.5))
		p90 = append(p90, quantile(r.JobsS, 0.9))
		jobs += len(r.JobsS)
		wallSum += r.WallS
	}
	clean := 0
	for _, r := range s.reps {
		if len(r.Failures) == 0 {
			clean++
		}
	}
	fmt.Printf("jobs %d over %d repetitions\n", jobs, len(reps))
	perSec := 0.0
	if wallSum > 0 {
		perSec = float64(jobs) / wallSum
	}
	return map[string]metric{
		"setup_s":       {median(setup), "s"},
		"wall_s":        {median(wall), "s"},
		"peak_rss_mb":   {median(rss), "MB"},
		"success_ratio": {float64(clean) / float64(max(len(s.reps), 1)), "ratio"},
		"job_p50_ms":    {median(p50) * 1e3, "ms"},
		"job_p90_ms":    {median(p90) * 1e3, "ms"},
		"jobs_per_s":    {perSec, "1/s"},
	}
}

// layerMetrics assembles the per-layer metrics from the traced
// repetitions: counts from the first (all repeat exactly), measured
// values as medians, CPU samples summed.
func (s *summary) layerMetrics() map[string]metric {
	traced := s.pick(true)
	vals := map[string]float64{}
	if len(traced) > 0 {
		for k, v := range traced[0].Counts.layer() {
			vals[k] = v
		}
		keys := map[string][]float64{}
		samples := map[string]int64{}
		var total int64
		for _, r := range traced {
			for k, v := range r.Layer {
				keys[k] = append(keys[k], v)
			}
			for p, n := range r.Profile {
				samples[p] += n
				total += n
			}
		}
		for k, v := range keys {
			vals[k] = median(v)
		}
		for _, p := range hostSharePkgs {
			if total > 0 {
				vals["host_share."+p] = float64(samples[p]) / float64(total)
			}
		}
		var tw, uw []float64
		for _, r := range traced {
			tw = append(tw, r.WallS)
		}
		for _, r := range s.pick(false) {
			uw = append(uw, r.WallS)
		}
		if m := median(uw); m > 0 {
			vals["bench.tracing_overhead"] = median(tw) / m
		}
	}
	out := map[string]metric{}
	for _, d := range layerDefs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}
