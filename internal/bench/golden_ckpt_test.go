// Warm-start extension of the golden-determinism guard: the KV-store
// experiments, run with a checkpoint view on the context so sweeps fork
// sibling grid points from memoized post-warmup snapshots, must produce
// the exact bytes of a cold run.
package bench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"prestores/internal/bench"
	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/sim"
)

// ckptIDs is a fast cross-section of the checkpoint-eligible
// experiments, covering both sweep shapes: fig13 forks across craft
// modes on two machines (runKVB), kv-threads forks every grid point
// from a single load (runKVThreads). The full set (fig10-fig14,
// ycsb-mixes) runs in CI's checkpoint smoke.
var ckptIDs = []string{"fig13", "kv-threads"}

// ckptSHA256 pins the cold -quick output of ckptIDs, so the warm run is
// compared against known-good bytes rather than only against itself.
const ckptSHA256 = "53e51b90d56895248b1416367356a22a147610e20aacf345b9fc4d135d0e70de"

// TestWarmForkByteIdentity is the acceptance bar for warm-state
// forking: checkpointing is a pure wall-time optimization, so the warm
// run's bytes must equal the cold run's exactly, and the store must
// actually see hits (a silent fall-back to cold loads would pass the
// comparison while losing the speedup).
func TestWarmForkByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the KV experiment cross-section twice; skipped with -short")
	}
	exps := lookupAll(t, ckptIDs)
	run := func(ctx context.Context) []byte {
		t.Helper()
		var buf bytes.Buffer
		results, err := bench.Run(ctx, &buf, exps, bench.RunnerConfig{Parallel: 4, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			if results[i].Failed() {
				t.Fatalf("%s failed: %s", results[i].ID, results[i].Err)
			}
		}
		return buf.Bytes()
	}

	cold := run(context.Background())
	if sum := sha256.Sum256(cold); hex.EncodeToString(sum[:]) != ckptSHA256 {
		t.Errorf("cold output hash = %x; want %s\n%s", sum, ckptSHA256, cold)
	}

	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	view := store.View()
	warm := run(checkpoint.NewContext(context.Background(), view))

	if !bytes.Equal(cold, warm) {
		t.Errorf("warm-forked output differs from cold run:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if view.Hits() == 0 {
		t.Errorf("checkpoint store saw no hits (misses=%d); warm forking never engaged", view.Misses())
	}
	t.Logf("checkpoints: %d hits, %d misses, %d bytes in store", view.Hits(), view.Misses(), store.Bytes())
}

// TestParallelSimOpsExact pins satellite behaviour of the per-run ops
// counter: an experiment's SimOps under a concurrent sweep equals its
// SimOps when run alone. Before the counter moved onto the run context,
// parallel experiments bled retired ops into each other's window of the
// process-wide total.
func TestParallelSimOpsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; skipped with -short")
	}
	solo := func(id string) uint64 {
		t.Helper()
		e, ok := bench.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var buf bytes.Buffer
		res, err := bench.Run(context.Background(), &buf, []bench.Experiment{e}, bench.RunnerConfig{Parallel: 1, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Failed() {
			t.Fatalf("%s failed: %s", id, res[0].Err)
		}
		if res[0].SimOps == 0 {
			t.Fatalf("%s retired zero ops solo", id)
		}
		return res[0].SimOps
	}
	ids := []string{"listing3", "x9"}
	want := map[string]uint64{}
	var exps []bench.Experiment
	for _, id := range ids {
		want[id] = solo(id)
		e, _ := bench.Lookup(id)
		exps = append(exps, e)
	}

	var buf bytes.Buffer
	res, err := bench.Run(context.Background(), &buf, exps, bench.RunnerConfig{Parallel: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if got := res[i].SimOps; got != want[res[i].ID] {
			t.Errorf("%s: SimOps under Parallel:2 = %d; want %d (solo run)", res[i].ID, got, want[res[i].ID])
		}
	}
}

// TestSpecSimOpsExact pins that a spec run's SimOps counts every op its
// machines retired, the tail after each run's last drain included: the
// total must equal the per-core instruction counts of every machine the
// run built, as seen through scenario.WithObserver.
func TestSpecSimOpsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; skipped with -short")
	}
	for _, e := range lookupAll(t, []string{"x9", "fig5", "ablate-dir"}) {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var machines []*sim.Machine
			ctx := scenario.WithObserver(context.Background(), func(m *sim.Machine) {
				machines = append(machines, m)
			})
			res, err := bench.Run(ctx, io.Discard, []bench.Experiment{e}, bench.RunnerConfig{Parallel: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Failed() {
				t.Fatalf("failed: %s", res[0].Err)
			}
			var want uint64
			for _, m := range machines {
				for i := 0; i < m.Cores(); i++ {
					want += m.Core(i).Instructions()
				}
			}
			if want == 0 || res[0].SimOps != want {
				t.Errorf("SimOps = %d; want %d retired by its %d machines", res[0].SimOps, want, len(machines))
			}
		})
	}
}
