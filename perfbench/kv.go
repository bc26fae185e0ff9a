package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	_ "prestores/internal/bench" // registers every scenario workload
	"prestores/internal/obs"
	"prestores/internal/scenario"
	"prestores/internal/sim"
)

// defaultSeed is the seed the pinned output digests were taken at.
const defaultSeed = 1

// kvPinned is the sha256 of the kv-pmem table at defaultSeed, per
// scale. A simulator change that alters any simulated result shows as
// a failed check here.
var kvPinned = map[string]string{
	"full":  "e9897d11b817d4b3085d1e4f0c302ce901ccd5d887afb07fbfe8c578a46f35d7",
	"small": "66d3473c0f40f5f63e61cfd21631a7be05e926e836c2802edb7918e0469725cd",
}

// kvSize is the per-point YCSB size of each scale.
var kvSize = map[string]struct{ records, ops, threads int }{
	"full":  {10000, 1000, 8},
	"small": {2000, 100, 2},
}

// workloadSeed derives the simulator seed the generated inputs carry
// from the benchmark seed.
func workloadSeed(seed int64, salt uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + salt
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%1_000_000 + 1
}

// kvSpecJSON generates the kv-pmem input: YCSB-A on machine-a with
// values in the PMEM window, swept over store × value size under the
// none, clean and skip pre-store ops.
func kvSpecJSON(seed int64, scale string) []byte {
	sz := kvSize[scale]
	return []byte(fmt.Sprintf(`{
  "version": 1,
  "name": "perfbench-kv-pmem",
  "machine": {"preset": "machine-a"},
  "workload": {"name": "ycsb", "params": {"mix": "A", "window": "pmem",
    "records": %d, "ops": %d, "threads": %d, "seed": %d}},
  "policy": {
    "ops": ["none", "clean", "skip"],
    "axes": [
      {"param": "store", "values": ["clht", "masstree"]},
      {"param": "value_size", "values": [256, 1024]}
    ],
    "columns": [
      {"title": "store", "axis": "store"},
      {"title": "value", "axis": "value_size"},
      {"title": "none ops/s", "op": "none", "metric": "ops_per_sec", "format": "mops"},
      {"title": "clean", "op": "clean", "metric": "ops_per_sec", "den_op": "none", "format": "x2"},
      {"title": "skip", "op": "skip", "metric": "ops_per_sec", "den_op": "none", "format": "x2"},
      {"title": "none amp", "op": "none", "metric": "write_amp", "format": "f2"},
      {"title": "clean amp", "op": "clean", "metric": "write_amp", "format": "f2"},
      {"title": "skip amp", "op": "skip", "metric": "write_amp", "format": "f2"},
      {"title": "none dev B", "op": "none", "metric": "device_write_bytes", "format": "f0"}
    ]
  }
}`, sz.records, sz.ops, sz.threads, workloadSeed(seed, 1)))
}

// pointWatch is the scenario observer: it times the runs between
// machine callbacks and folds each finished machine's counters in,
// dropping it so finished machines do not stay resident.
type pointWatch struct {
	tr     tracer
	parent obs.SpanContext
	counts simCounts
	points []float64
	pmemOK bool
	cur    *sim.Machine
	curAt  time.Time
}

func (w *pointWatch) observe(m *sim.Machine) {
	w.finish(time.Now())
	w.cur, w.curAt = m, time.Now()
}

func (w *pointWatch) finish(now time.Time) {
	if w.cur == nil {
		return
	}
	if !w.counts.add(w.cur) {
		w.pmemOK = false
	}
	w.points = append(w.points, now.Sub(w.curAt).Seconds())
	w.tr.Record(w.parent, "scenario.point", w.curAt, now, obs.KV("machine", w.cur.Name()))
	w.cur = nil
}

// kvRep runs one kv-pmem repetition: one cold Spec.Exec sweep.
func kvRep(o opts, ready func()) (*rep, error) {
	tr := newTracer(o.traced)
	ctx, setupSpan := tr.Start(context.Background(), "setup")
	spec, err := scenario.Decode(kvSpecJSON(o.seed, o.scale))
	if err != nil {
		return nil, fmt.Errorf("kv-pmem spec: %w", err)
	}
	setupSpan.End()
	ready()

	r := &rep{Layer: map[string]float64{}}
	w := &pointWatch{tr: tr, pmemOK: true}
	prof := startProfile(o.traced, o.work)
	rt0 := readRuntime()
	ctx, span := tr.Start(ctx, "scenario.Spec.Exec")
	w.parent = span.Context()
	var out bytes.Buffer
	t0 := time.Now()
	err = spec.Exec(scenario.WithObserver(ctx, w.observe), &out, false)
	end := time.Now()
	w.finish(end)
	span.End()
	rt1 := readRuntime()
	r.Profile = prof.stop()
	r.WallS = end.Sub(t0).Seconds()

	r.Attempted += len(w.points)
	if err != nil {
		r.fail("kv-pmem sweep: %v", err)
	}
	r.check(w.pmemOK, "a PMEM device's media bytes differ from its retired blocks × granularity")
	r.check(len(w.points) == 12, "kv-pmem ran %d simulations, want 12", len(w.points))
	r.Digests = []string{digest(out.String())}
	r.JobsS = w.points // a job is one grid-point simulation
	r.Counts = w.counts
	for k, v := range runtimeLayer(rt0, rt1, w.counts.Instructions) {
		r.Layer[k] = v
	}
	r.Layer["sim.host_ns_per_instr"] = r.WallS * 1e9 / float64(max(w.counts.Instructions, 1))
	r.Layer["scenario.gridpoint_p50_s"] = median(w.points)
	r.Layer["scenario.gridpoint_max_s"] = quantile(w.points, 1)
	r.Spans = tr.spans()
	return r, nil
}

// digest is the hex sha256 of an output.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
