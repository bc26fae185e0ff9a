// Golden-determinism guard. This file is an external test package so
// it can drive the experiments the way real consumers do — through the
// exported runner API and through the prestored HTTP daemon — and
// assert all of them produce the same bytes.
package bench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prestores/internal/bench"
	"prestores/internal/server"
)

// goldenIDs is a cross-section of the registry covering every subsystem
// the experiments exercise: directory/drain ablations, both device
// extensions, the headline figures, the listing microbenchmarks, and
// the multi-core table.
var goldenIDs = []string{
	"ablate-dir", "ablate-drain", "ext-cxlssd", "ext-seqlog",
	"fig3", "fig5", "listing3", "skipvsclean", "table1", "x9",
}

// goldenSHA256 is the SHA-256 of the concatenated -quick output of
// goldenIDs, in that order. The simulator is deterministic by design —
// fixed seeds, no timing dependence — so this hash must be stable
// across runs, across -parallel settings, and across performance
// refactors. If an intentional model change shifts the numbers, rerun
//
//	go run ./cmd/prestore-bench -quick -run \
//	  ablate-dir,ablate-drain,ext-cxlssd,ext-seqlog,fig3,fig5,listing3,skipvsclean,table1,x9 \
//	  | sha256sum
//
// and update the constant in the same commit that explains the change.
const goldenSHA256 = "001281f3bccc41f60a5ad26f76bf982231f2806b799de97970a160407ddb3424"

// movedIDs are experiments that became declarative specs after
// goldenSHA256 was taken (the ablations that gained machine-config and
// device-parameter axes, the tensor figure and the prefetch extension);
// movedSHA256 pins their concatenated -quick output the same way, as
// produced by their earlier hand-written loops:
//
//	go run ./cmd/prestore-bench -quick -run fig8,ablate-llc,ablate-pmembuf,ext-prefetch | sha256sum
var movedIDs = []string{"fig8", "ablate-llc", "ablate-pmembuf", "ext-prefetch"}

const movedSHA256 = "2d1269c641a3cb5db3e258d622e3baf41c492b0eb35fe1dad9fd869d3f7efe9f"

func lookupAll(t *testing.T, ids []string) []bench.Experiment {
	t.Helper()
	exps := make([]bench.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := bench.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// TestGoldenOutput locks the experiment output down to the byte. It is
// the regression oracle that lets hot-path rewrites proceed safely:
// any accidental change to timing, accounting, or formatting shows up
// as a hash mismatch here before it silently corrupts paper figures.
// Both pinned sets run in one sweep, longest (fig8) first, so the
// workers stay busy.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden cross-section takes a few seconds; skipped with -short")
	}
	exps := lookupAll(t, append(append([]string(nil), movedIDs...), goldenIDs...))
	results, err := bench.Run(context.Background(), io.Discard, exps, bench.RunnerConfig{Parallel: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	outputs := map[string]string{}
	for i := range results {
		if results[i].Failed() {
			t.Fatalf("%s failed: %s", results[i].ID, results[i].Err)
		}
		outputs[results[i].ID] = results[i].Output
		// Per-experiment SimOps is exact under any -parallel setting
		// (each run counts through its own context-attached counter),
		// and every experiment but table1 (a printed configuration
		// table) simulates something.
		if results[i].ID != "table1" && results[i].SimOps == 0 {
			t.Errorf("%s retired zero simulated ops", results[i].ID)
		}
	}
	for _, pin := range []struct {
		ids  []string
		want string
	}{{goldenIDs, goldenSHA256}, {movedIDs, movedSHA256}} {
		var out strings.Builder
		for _, id := range pin.ids {
			out.WriteString(outputs[id])
		}
		sum := sha256.Sum256([]byte(out.String()))
		if got := hex.EncodeToString(sum[:]); got != pin.want {
			t.Errorf("output hash of %v = %s; want %s\n"+
				"If the model changed intentionally, update the constant (see its comment).\n%s",
				pin.ids, got, pin.want, out.String())
		}
	}
}

// TestGoldenOutputThroughServer extends the guard across the prestored
// daemon: an experiment's output served over HTTP — both the uncached
// run and the cache hit that follows it — must be byte-identical to
// RunOne in process. If the service layer ever reformats, truncates or
// re-times output, this catches it.
func TestGoldenOutputThroughServer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment; skipped with -short")
	}
	e, ok := bench.Lookup("listing3")
	if !ok {
		t.Fatal("experiment listing3 not registered")
	}
	var want bytes.Buffer
	if err := bench.RunOne(context.Background(), &want, e, true); err != nil {
		t.Fatal(err)
	}

	s := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	}()

	submit := func() server.JobStatus {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
			bytes.NewReader([]byte(`{"id":"listing3","quick":true}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st server.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	poll := func(id string) server.JobStatus {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st server.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			switch st.State {
			case "done", "failed", "cancelled":
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	first := submit()
	if first.Cached {
		t.Fatalf("fresh daemon served from cache: %+v", first)
	}
	st := poll(first.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("uncached run: %+v", st)
	}
	if st.Result.Output != want.String() {
		t.Fatalf("uncached server output differs from RunOne:\n got: %q\nwant: %q",
			st.Result.Output, want.String())
	}

	second := submit()
	if !second.Cached || second.Result == nil {
		t.Fatalf("identical resubmit not served from cache: %+v", second)
	}
	if second.Result.Output != want.String() {
		t.Fatalf("cached server output differs from RunOne:\n got: %q\nwant: %q",
			second.Result.Output, want.String())
	}
}
