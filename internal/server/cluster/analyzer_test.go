package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"prestores/internal/dirtbuster"
	"prestores/internal/server"
	"prestores/internal/sim"
	"prestores/internal/trace"
)

// analysisWorkload is a small write-intensive workload whose chunked
// trace spans a few dozen chunks at the test chunk size.
func analysisWorkload() dirtbuster.Workload {
	return dirtbuster.Workload{
		Name:       "clusterwl",
		NewMachine: sim.MachineA,
		Run: func(m *sim.Machine) {
			c := m.Core(0)
			buf := make([]byte, 1024)
			c.PushFunc("clusterwl.write")
			for i := uint64(0); i < 300; i++ {
				c.Write(1<<40+i*1024, buf)
			}
			c.PopFunc()
			c.PushFunc("clusterwl.read")
			for i := uint64(0); i < 100; i++ {
				c.Read(1<<40+i*1024, buf)
			}
			c.PopFunc()
		},
	}
}

// uploadTrace stores an encoded trace through the coordinator's
// embedded host and returns its address.
func uploadTrace(t *testing.T, base string, data []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var info struct {
		Address string `json:"address"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info.Address
}

func runClusterAnalysis(t *testing.T, base, addr, app string) string {
	t.Helper()
	code, body := postJSON(t, base+"/v1/analyses", map[string]any{"trace": addr, "app": app, "line_size": 64})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit analysis: status %d: %s", code, body)
	}
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st = waitFinal(t, base, st.ID)
	if st.State != "done" {
		t.Fatalf("analysis %s: %s", st.State, st.Result.Err)
	}
	return st.Result.Output
}

// TestClusterAnalysisByteIdentical runs a sharded trace analysis over
// two workers and checks the report is byte-identical to the
// monolithic in-process one.
func TestClusterAnalysisByteIdentical(t *testing.T) {
	_, cts, _ := newCluster(t, 2)

	tb, line := dirtbuster.Record(analysisWorkload())
	var buf bytes.Buffer
	if err := tb.EncodeChunked(&buf, 16); err != nil {
		t.Fatal(err)
	}
	addr := uploadTrace(t, cts.URL, buf.Bytes())

	want := dirtbuster.AnalyzeTrace("clusterwl", tb, line, dirtbuster.Config{}).Render() + "\n"
	if got := runClusterAnalysis(t, cts.URL, addr, "clusterwl"); got != want {
		t.Fatalf("sharded report differs from monolithic\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Both workers took chunk calls (40+ calls over 2 shards — a shard
	// taking none would mean routing collapsed to one node).
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := strings.Count(string(mtext), "prestored_coordinator_chunks_total{"); n != 2 {
		t.Fatalf("chunk calls reached %d shards, want 2\n%s", n, mtext)
	}
}

// TestClusterAnalysisSurvivesShardDeath kills one worker from inside
// its own chunk handler mid-analysis. The in-flight chunk call fails,
// the chunk is rerouted to the surviving shard, and the report must
// still be byte-identical to the monolithic one.
func TestClusterAnalysisSurvivesShardDeath(t *testing.T) {
	_, cts, shards := newCluster(t, 2)

	tb, line := dirtbuster.Record(analysisWorkload())
	var buf bytes.Buffer
	if err := tb.EncodeChunked(&buf, 8); err != nil {
		t.Fatal(err)
	}
	addr := uploadTrace(t, cts.URL, buf.Bytes())

	// Shard 1 dies on its third chunk request: the request aborts
	// mid-connection and every later call is refused, exactly like a
	// crashed worker whose port is still bound.
	victim := shards[1]
	var chunkCalls atomic.Int64
	victim.kill.wrap(func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/analyses/chunks" && chunkCalls.Add(1) == 3 {
				victim.die()
				panic(http.ErrAbortHandler)
			}
			inner.ServeHTTP(w, r)
		})
	})

	want := dirtbuster.AnalyzeTrace("clusterwl", tb, line, dirtbuster.Config{}).Render() + "\n"
	if got := runClusterAnalysis(t, cts.URL, addr, "clusterwl"); got != want {
		t.Fatalf("report after shard death differs from monolithic\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if chunkCalls.Load() < 3 {
		t.Fatalf("victim shard saw only %d chunk calls; the kill never fired", chunkCalls.Load())
	}

	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mtext), "prestored_coordinator_chunk_retries_total{") {
		t.Fatalf("no chunk retries recorded after shard death\n%s", mtext)
	}
}

// TestChunkAddressStable pins the placement key: identical chunks must
// hash identically (cache/routing stability) and different chunks must
// not collide on the tiny test set.
func TestChunkAddressStable(t *testing.T) {
	tb, _ := dirtbuster.Record(analysisWorkload())
	var buf bytes.Buffer
	if err := tb.EncodeChunked(&buf, 64); err != nil {
		t.Fatal(err)
	}
	cr, err := trace.NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for {
		c, err := cr.Next()
		if err != nil {
			break
		}
		a1, err := chunkAddress(c)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := chunkAddress(c)
		if err != nil {
			t.Fatal(err)
		}
		if a1 != a2 {
			t.Fatalf("chunk %d address not stable: %s vs %s", c.Index, a1, a2)
		}
		if prev, dup := seen[a1]; dup {
			t.Fatalf("chunks %d and %d share address %s", prev, c.Index, a1)
		}
		seen[a1] = c.Index
	}
	if len(seen) < 2 {
		t.Fatalf("only %d chunks", len(seen))
	}
}
