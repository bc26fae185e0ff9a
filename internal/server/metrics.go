package server

import (
	"sync/atomic"
	"time"

	"prestores/internal/obs"
)

// durBuckets are the histogram upper bounds (seconds) shared by the
// queue-wait and run-duration families: exponential from 5 ms to 5 min,
// wide enough for both a cache-warm quick experiment and a full sweep.
var durBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// metrics holds the daemon's counters, registered into its obs
// registry. Gauges derived from scheduler state (queue depth, cache
// size) are registered as functions sampled at scrape time.
type metrics struct {
	reg obs.Registry

	jobsDone, jobsFailed, jobsCancelled *obs.Counter
	rejected                            *obs.Counter
	cacheHits, cacheMisses, coalesced   *obs.Counter

	// Autotuning-search counters (POST /v1/autotune).
	autotuneSearches, autotuneEvals, autotuneConverged *obs.Counter

	// Trace-pipeline counters (POST /v1/traces, /v1/analyses).
	traceUploads, traceUploadBytes, traceAnalyses, traceChunks *obs.Counter

	// Labeled families: per-kind/state completion counts, and per-kind
	// scheduling latency and run duration.
	finished          *obs.CounterVec
	queueWait, runDur *obs.HistogramVec

	running atomic.Int64
	// simOps sums the SimOps of every job this daemon finished: each
	// job counts its own machines on a private sim.OpsCounter, so the
	// total is exact and belongs to this daemon alone.
	simOps *obs.Counter
}

// registerMetrics registers the daemon's families in exposition order.
func (s *Server) registerMetrics() {
	m, r := &s.m, &s.m.reg
	gauge := func(name, help string, f func() int) {
		r.GaugeFunc(name, help, func() float64 { return float64(f()) })
	}
	locked := func(f func() int) func() int {
		return func() int {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}

	// Build identity as the conventional constant-1 info gauge: joins
	// let dashboards slice any series by the build that produced it.
	r.GaugeVecFunc("prestored_build_info", "Build identity of this daemon; constant 1.",
		[]string{"version", "go"}, func(set func(float64, ...string)) {
			set(1, s.cfg.Version, obs.GoVersion())
		})

	m.jobsDone = r.Counter("prestored_jobs_completed_total", "Jobs that finished successfully.")
	m.jobsFailed = r.Counter("prestored_jobs_failed_total", "Jobs that finished with an error (panic or timeout).")
	m.jobsCancelled = r.Counter("prestored_jobs_cancelled_total", "Jobs cancelled before completion.")
	m.rejected = r.Counter("prestored_jobs_rejected_total", "Submits rejected with 429 because the queue was full.")
	m.cacheHits = r.Counter("prestored_cache_hits_total", "Submits answered from the result cache.")
	m.cacheMisses = r.Counter("prestored_cache_misses_total", "Submits that enqueued new work.")
	m.coalesced = r.Counter("prestored_coalesced_total", "Submits attached to an identical in-flight job.")
	m.autotuneSearches = r.Counter("prestored_autotune_searches_total", "Autotuning searches that completed successfully.")
	m.autotuneEvals = r.Counter("prestored_autotune_evals_total", "Candidate plan evaluations performed by autotuning searches.")
	m.autotuneConverged = r.Counter("prestored_autotune_converged_total", "Autotuning searches that reached a local optimum within budget.")
	m.traceUploads = r.Counter("prestored_trace_uploads_total", "Trace recordings accepted into the store (one-shot or committed resumable uploads).")
	m.traceUploadBytes = r.Counter("prestored_trace_upload_bytes_total", "Encoded bytes of accepted trace recordings.")
	m.traceAnalyses = r.Counter("prestored_trace_analyses_total", "Chunked trace analyses that completed successfully.")
	m.traceChunks = r.Counter("prestored_trace_chunks_total", "Trace chunks processed by analysis passes (local or on behalf of a coordinator).")
	r.GaugeFunc("prestored_trace_store_bytes", "Bytes held by the trace store (stored traces plus open upload buffers).",
		func() float64 { b, _ := s.traces.usage(); return float64(b) })
	gauge("prestored_trace_stored", "Recordings currently in the trace store.",
		func() int { _, n := s.traces.usage(); return n })

	// The checkpoint families exist only when checkpointing is on.
	if s.ck != nil {
		r.CounterFunc("prestored_checkpoint_hits_total", "Warm-state checkpoint lookups answered from the store.", s.ck.Hits)
		r.CounterFunc("prestored_checkpoint_misses_total", "Warm-state checkpoint lookups that loaded cold.", s.ck.Misses)
		r.GaugeFunc("prestored_checkpoint_store_bytes", "Bytes of warm-state checkpoints held in memory.",
			func() float64 { return float64(s.ck.Bytes()) })
	}

	m.finished = r.CounterVec("prestored_jobs_finished_total", "Jobs reaching a final state, by kind and state.", "kind", "state")
	m.queueWait = r.HistogramVec("prestored_job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up, by kind.", "kind", durBuckets)
	m.runDur = r.HistogramVec("prestored_job_run_seconds",
		"Wall-clock run duration of jobs, by kind.", "kind", durBuckets)

	gauge("prestored_jobs_running", "Jobs currently executing on a worker.", func() int { return int(m.running.Load()) })
	gauge("prestored_queue_depth", "Jobs waiting in the queue.", func() int { return len(s.queue) })
	gauge("prestored_queue_capacity", "Bound on queued jobs; full queue rejects with 429.", func() int { return s.cfg.QueueDepth })
	gauge("prestored_workers", "Worker-pool size.", func() int { return s.cfg.Workers })
	gauge("prestored_inflight_keys", "Distinct cache keys currently queued or running.", locked(func() int { return len(s.inflight) }))
	gauge("prestored_cache_entries", "Results held in the cache.", locked(func() int { return len(s.cache) }))
	r.GaugeFunc("prestored_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	gauge("prestored_span_traces", "Traces currently held by the span store.", s.spans.Traces)
	r.CounterFunc("prestored_flight_records_total", "Entries appended to the flight recorder since start.", s.flight.Recorded)

	r.GaugeFunc("prestored_cache_hit_ratio", "cache_hits / (cache_hits + cache_misses) since start.", func() float64 {
		hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})

	m.simOps = r.Counter("prestored_sim_ops_total", "Simulated operations retired since the daemon started.")
	r.GaugeFunc("prestored_sim_ops_per_second", "Average simulated-operation throughput since start.", func() float64 {
		if sec := time.Since(s.start).Seconds(); sec > 0 {
			return float64(m.simOps.Value()) / sec
		}
		return 0
	})
}
