package main

import (
	"runtime/metrics"
	"sort"
	"strings"

	"prestores/internal/memdev"
	"prestores/internal/sim"
)

// layerDef is one per-layer metric as BENCHMARK.json lists it.
type layerDef struct {
	name, unit, better string
}

// hostSharePkgs are the packages whose share of host CPU samples the
// traced run reports (host_share.<pkg>).
var hostSharePkgs = []string{
	"cache", "flatmap", "memdev", "memspace", "coherence", "sim", "snap",
	"checkpoint", "trace", "dirtbuster", "btree", "server", "cluster", "obs", "runtime",
}

// layerDefs lists every per-layer metric. A workload that does not
// exercise a layer reports 0 for it; the per-unit names (ns/record,
// ms/job, ...) say what the value is normalized by.
var layerDefs = func() []layerDef {
	ds := []layerDef{
		{"sim.instructions", "count", "lower"},
		{"sim.l1_accesses", "count", "lower"},
		{"sim.host_ns_per_instr", "ns/instr", "lower"},
		{"cache.l1_hit_ratio", "ratio", "higher"},
		{"cache.llc_miss_ratio", "ratio", "lower"},
		{"cache.llc_dirty_evictions", "count", "lower"},
		{"memdev.pmem_write_amp", "ratio", "lower"},
		{"memdev.pmem_partial_flushes", "count", "lower"},
		{"memdev.stall_cycles", "cycles", "lower"},
		{"coherence.state_changes", "count", "lower"},
		{"coherence.invalidations", "count", "lower"},
		{"runtime.allocs_per_instr", "1/instr", "lower"},
		{"runtime.alloc_bytes_per_instr", "B/instr", "lower"},
		{"runtime.gc_cpu_share", "share", "lower"},
		{"scenario.gridpoint_p50_s", "s", "lower"},
		{"scenario.gridpoint_max_s", "s", "lower"},
		{"trace.record_s", "s/trace", "lower"},
		{"trace.encode_ns_per_record", "ns/record", "lower"},
		{"trace.bytes_per_record", "B/record", "lower"},
		{"trace.decode_ns_per_record", "ns/record", "lower"},
		{"dirtbuster.analyze_s", "s/trace", "lower"},
		{"dirtbuster.self_ns_per_record", "ns/record", "lower"},
		{"dirtbuster.records_per_s", "1/s", "higher"},
		{"server.cache_hit_ratio", "ratio", "higher"},
		{"server.queue_wait_p50_ms", "ms/job", "lower"},
		{"server.run_p50_ms", "ms/job", "lower"},
		{"server.rejected", "count", "lower"},
		{"cluster.variant_hit_ratio", "ratio", "higher"},
		{"cluster.proxy_overhead_ms", "ms/req", "lower"},
		{"cluster.requeued", "count", "lower"},
		{"checkpoint.hit_ratio", "ratio", "higher"},
		{"checkpoint.store_mb", "MB", "lower"},
	}
	for _, p := range hostSharePkgs {
		ds = append(ds, layerDef{"host_share." + p, "share", "lower"})
	}
	return append(ds, layerDef{"bench.tracing_overhead", "ratio", "lower"})
}()

// simCounts are the exact simulated counters of a set of machines,
// read through the layers' Stats accessors after each run. Core,
// cache, directory and device counters cover each workload's measured
// phase (workloads reset them after warm-up); Instructions covers the
// whole run.
type simCounts struct {
	Machines           int    `json:"machines"`
	Instructions       uint64 `json:"instructions"`
	Loads              uint64 `json:"loads"`
	Stores             uint64 `json:"stores"`
	Atomics            uint64 `json:"atomics"`
	LoadL1Hits         uint64 `json:"load_l1_hits"`
	LoadLLCHits        uint64 `json:"load_llc_hits"`
	LoadMemFills       uint64 `json:"load_mem_fills"`
	LLCDirtyEvictions  uint64 `json:"llc_dirty_evictions"`
	PMEMBytesReceived  uint64 `json:"pmem_bytes_received"`
	PMEMMediaWritten   uint64 `json:"pmem_media_written"`
	PMEMPartialFlushes uint64 `json:"pmem_partial_flushes"`
	StallCycles        uint64 `json:"stall_cycles"`
	StateChanges       uint64 `json:"state_changes"`
	Invalidations      uint64 `json:"invalidations"`
}

// add folds one finished machine in. It returns false when a PMEM
// device's media bytes are not exactly one internal block per block it
// retired (full or partial): every byte the device wrote to its medium
// must be accounted to a retired write-combining buffer entry.
//
// Media bytes may fall below the bytes received: lines rewritten while
// their block sits in the write-combining buffer are coalesced, so a
// write amplification below 1 is legitimate for this model.
func (c *simCounts) add(m *sim.Machine) bool {
	c.Machines++
	for i := 0; i < m.Cores(); i++ {
		core := m.Core(i)
		c.Instructions += core.Instructions()
		st := core.Stats()
		c.Loads += st.Loads
		c.Stores += st.Stores
		c.Atomics += st.Atomics
		c.LoadL1Hits += st.LoadL1Hits
		c.LoadLLCHits += st.LoadLLCHits
		c.LoadMemFills += st.LoadMemFills
	}
	c.LLCDirtyEvictions += m.LLC().Stats().DirtyEvictions
	dir := m.Directory().Stats()
	c.StateChanges += dir.StateChanges
	c.Invalidations += dir.Invalidations
	ok := true
	seen := map[memdev.Device]bool{}
	for _, w := range m.Config().Windows {
		if seen[w.Device] {
			continue
		}
		seen[w.Device] = true
		st := w.Device.Stats()
		c.StallCycles += st.StallCycles
		if w.Device.Kind() == memdev.KindPMEM {
			c.PMEMBytesReceived += st.BytesReceived
			c.PMEMMediaWritten += st.MediaBytesWritten
			c.PMEMPartialFlushes += st.PartialFlush
			if st.MediaBytesWritten != w.Device.InternalGranularity()*(st.BlockFills+st.PartialFlush) {
				ok = false
			}
		}
	}
	return ok
}

// layer returns the count-derived per-layer metrics. L1 accesses are
// the cores' loads, stores and atomics (non-temporal stores bypass
// L1); the hit and miss ratios are over loads, which the cores
// classify by the level that served them.
func (c simCounts) layer() map[string]float64 {
	return map[string]float64{
		"sim.instructions":            float64(c.Instructions),
		"sim.l1_accesses":             float64(c.Loads + c.Stores + c.Atomics),
		"cache.l1_hit_ratio":          ratio(c.LoadL1Hits, c.Loads),
		"cache.llc_miss_ratio":        ratio(c.LoadMemFills, c.LoadLLCHits+c.LoadMemFills),
		"cache.llc_dirty_evictions":   float64(c.LLCDirtyEvictions),
		"memdev.pmem_write_amp":       ratio(c.PMEMMediaWritten, c.PMEMBytesReceived),
		"memdev.pmem_partial_flushes": float64(c.PMEMPartialFlushes),
		"memdev.stall_cycles":         float64(c.StallCycles),
		"coherence.state_changes":     float64(c.StateChanges),
		"coherence.invalidations":     float64(c.Invalidations),
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// rtSample is a runtime/metrics snapshot of the allocation and GC
// counters the runtime.* metrics difference.
type rtSample struct {
	allocs, bytes, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{v(0), v(1), v(2), v(3)}
}

// runtimeLayer returns the runtime.* metrics for the work between two
// snapshots, normalized by the simulated instructions it retired.
func runtimeLayer(a, b rtSample, instr uint64) map[string]float64 {
	out := map[string]float64{}
	if instr > 0 {
		out["runtime.allocs_per_instr"] = (b.allocs - a.allocs) / float64(instr)
		out["runtime.alloc_bytes_per_instr"] = (b.bytes - a.bytes) / float64(instr)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / cpu
	}
	return out
}

// pkgOf maps a profiled function name to the host_share package it is
// charged to, or "other".
func pkgOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/internal/"),
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "prestores/internal/"):
		rest := strings.TrimPrefix(fn, "prestores/internal/")
		// The package path ends at the last '/' before the first '.'.
		if dot := strings.IndexByte(rest, '.'); dot >= 0 {
			rest = rest[:dot]
		}
		if slash := strings.LastIndexByte(rest, '/'); slash >= 0 {
			rest = rest[slash+1:]
		}
		for _, p := range hostSharePkgs {
			if rest == p {
				return p
			}
		}
	}
	return "other"
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
