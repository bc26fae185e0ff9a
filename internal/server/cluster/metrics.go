package cluster

import (
	"sync/atomic"
	"time"

	"prestores/internal/obs"
)

// cmetrics holds the coordinator's counters, registered into its obs
// registry. Health and job gauges are sampled at scrape time.
type cmetrics struct {
	reg obs.Registry

	routed       *obs.CounterVec // submits routed to a shard (202 accepted)
	cacheHits    *obs.CounterVec // submits a shard answered from its cache (200)
	requeued     *obs.CounterVec // jobs moved OFF a shard after it was lost
	shardErrors  *obs.CounterVec // proxied calls a shard failed to answer
	probeDowns   *obs.CounterVec // healthy→unhealthy transitions
	chunks       *obs.CounterVec // trace-analysis chunk calls a shard answered
	chunkRetries *obs.CounterVec // chunk calls moved OFF a shard after a failure
	scrapeErrors *obs.CounterVec // federated /metrics scrapes that failed or did not parse

	rejected  *obs.Counter // submits refused: no healthy shard
	jobsDone  *obs.Counter // proxied jobs observed reaching state done
	streamsUp atomic.Int64 // client streams currently proxied
}

// registerMetrics registers the coordinator's families in exposition
// order. Every per-shard counter series is seeded at zero for the
// configured shards: the series exist from the very first scrape and
// are never deleted, so they never appear, vanish or reset as shards
// bounce in and out of the ring — counter monotonicity holds per
// series for the life of the coordinator process.
func (c *Coordinator) registerMetrics() {
	m, r := &c.m, &c.m.reg
	gauge := func(name, help string, f func() int) {
		r.GaugeFunc(name, help, func() float64 { return float64(f()) })
	}
	perShard := func(name, help string) *obs.CounterVec {
		v := r.CounterVec(name, help, "shard")
		for _, s := range c.cfg.Shards {
			v.Seed(s)
		}
		return v
	}

	r.GaugeVecFunc("prestored_coordinator_build_info",
		"Build metadata for the coordinator binary (value is always 1).",
		[]string{"version", "go"}, func(set func(float64, ...string)) {
			set(1, obs.Version(), obs.GoVersion())
		})

	m.routed = perShard("prestored_coordinator_routed_total",
		"Submits routed to a worker shard and accepted.")
	m.cacheHits = perShard("prestored_coordinator_cache_hits_total",
		"Submits a worker shard answered from its result cache.")
	m.requeued = perShard("prestored_coordinator_requeued_total",
		"Jobs rerouted off a shard after it was lost mid-flight.")
	m.shardErrors = perShard("prestored_coordinator_shard_errors_total",
		"Proxied calls a shard failed to answer (connect failure or timeout).")
	m.probeDowns = perShard("prestored_coordinator_probe_failures_total",
		"Healthy-to-unhealthy transitions per shard.")
	m.chunks = perShard("prestored_coordinator_chunks_total",
		"Trace-analysis chunk calls answered by a shard.")
	m.chunkRetries = perShard("prestored_coordinator_chunk_retries_total",
		"Chunk calls rerouted off a shard after it failed to answer.")
	m.scrapeErrors = perShard("prestored_coordinator_federation_errors_total",
		"Federated /metrics scrapes that failed to fetch or parse.")
	m.rejected = r.Counter("prestored_coordinator_rejected_total",
		"Submits refused because no shard was healthy.")
	m.jobsDone = r.Counter("prestored_coordinator_jobs_done_total",
		"Proxied jobs observed reaching state done.")

	r.GaugeVecFunc("prestored_coordinator_shard_healthy",
		"Shard health from the prober (1 healthy, 0 down).",
		[]string{"shard"}, func(set func(float64, ...string)) {
			for i, s := range c.ring.Shards() {
				up := 0.0
				if c.prober.healthy(i) {
					up = 1
				}
				set(up, s)
			}
		})

	gauge("prestored_coordinator_shards", "Configured worker shards.", func() int { return len(c.ring.Shards()) })
	gauge("prestored_coordinator_jobs_tracked", "Jobs the coordinator is tracking.", func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.jobs)
	})
	gauge("prestored_coordinator_streams_active", "Client streams currently proxied.",
		func() int { return int(m.streamsUp.Load()) })
	gauge("prestored_coordinator_span_traces", "Traces currently held in the coordinator span store.", c.spans.Traces)
	r.CounterFunc("prestored_coordinator_flight_records_total", "Events recorded by the coordinator flight recorder.",
		c.flight.Recorded)
	r.GaugeFunc("prestored_coordinator_uptime_seconds", "Seconds since the coordinator started.",
		func() float64 { return time.Since(c.start).Seconds() })
}
