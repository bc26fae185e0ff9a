package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"prestores/internal/obs"
	"prestores/internal/scenario"
	"prestores/internal/sim"
)

// testGateWorkload is a scenario workload registered for this
// package's tests only: its first grid point (point 0) returns at
// once, every later point blocks until gateRelease is closed.
const testGateWorkload = "test-gate"

var gateRelease chan struct{}

func init() {
	scenario.Register(scenario.Workload{
		Name:        testGateWorkload,
		Description: "test only: returns grid point 0, blocks later points until released",
		Params:      []scenario.ParamDef{{Name: "point", Kind: scenario.KindInt}},
		Ops:         []string{"none"},
		MetricNames: []string{"point"},
		Run: func(_ *sim.Machine, _ string, p scenario.Params) (scenario.Metrics, error) {
			pt := p.Int("point", 0)
			if pt > 0 {
				<-gateRelease
			}
			return scenario.Metrics{"point": float64(pt)}, nil
		},
	})
}

// TestScenarioStreamsWhileRunning: a scenario job's rows reach a
// ?stream=1 client as the grid runner writes them, not when the job
// finishes. The gated workload holds the job after its first grid
// point; the header row must already be on the wire while the job is
// still running.
func TestScenarioStreamsWhileRunning(t *testing.T) {
	gateRelease = make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gateRelease)
		}
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	// Registered after the server, so it runs before the server's
	// shutdown: a held job would otherwise never drain.
	t.Cleanup(release)

	const body = `{"quick": true, "spec": {"version": 1, "name": "gated",
	  "machine": {"preset": "machine-a"}, "workload": {"name": "test-gate"},
	  "policy": {"ops": ["none"], "axes": [{"param": "point", "values": [0, 1]}],
	    "columns": [{"title": "point", "axis": "point"},
	                {"title": "value", "op": "none", "metric": "point"}]}}}`
	resp, err := http.Post(ts.URL+"/v1/scenarios?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream submit: status %d", resp.StatusCode)
	}
	events := make(chan StreamEvent)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev StreamEvent
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				return
			}
			select {
			case events <- ev:
			case <-stop:
				return
			}
		}
	}()

	var header bytes.Buffer
	scenario.WriteRow(&header, "point", "value")
	var jobID string
	var streamed strings.Builder
	deadline := time.After(30 * time.Second)
	for !strings.Contains(streamed.String(), header.String()) {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended before the header row; got %q", streamed.String())
			}
			switch ev.Event {
			case "status":
				jobID = ev.Job.ID
			case "output":
				streamed.WriteString(ev.Data)
			case "done":
				t.Fatalf("job finished before its header row was streamed: %+v", ev.Job)
			}
		case <-deadline:
			t.Fatalf("header row not streamed while the job is held after its first grid point; got %q", streamed.String())
		}
	}
	if st := getJob(t, ts.URL, jobID); st.State != "running" {
		t.Fatalf("job %s is %s once its header row streamed, want running", jobID, st.State)
	}

	release()
	var final *JobStatus
	for ev := range events {
		switch ev.Event {
		case "output":
			streamed.WriteString(ev.Data)
		case "done":
			final = ev.Job
		}
	}
	if final == nil || final.State != "done" || final.Result == nil {
		t.Fatalf("stream did not end with a done job: %+v", final)
	}
	if streamed.String() != final.Result.Output {
		t.Fatalf("streamed output differs from the result:\n got: %q\nwant: %q", streamed.String(), final.Result.Output)
	}
}

// scrapeSimOps reads prestored_sim_ops_total from a daemon's /metrics.
func scrapeSimOps(t *testing.T, base string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == "prestored_sim_ops_total" && len(f.Samples) == 1 {
			v, err := strconv.ParseUint(f.Samples[0].Value, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("%s/metrics has no prestored_sim_ops_total sample", base)
	return 0
}

// TestSimOpsPerDaemon: prestored_sim_ops_total counts the ops of the
// jobs this daemon ran and nothing else — another daemon in the same
// process stays at zero, and the busy one reports exactly its job's
// result.sim_ops.
func TestSimOpsPerDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment; skipped with -short")
	}
	_, idle := newTestServer(t, Config{Workers: 1})
	_, busy := newTestServer(t, Config{Workers: 1})

	st := waitFinal(t, busy.URL, submit(t, busy.URL, map[string]any{"id": "listing3", "quick": true}).ID)
	if st.State != "done" || st.Result == nil || st.Result.SimOps == 0 {
		t.Fatalf("listing3 job: %+v", st)
	}
	if got := scrapeSimOps(t, idle.URL); got != 0 {
		t.Errorf("idle daemon reports prestored_sim_ops_total %d, want 0", got)
	}
	if got := scrapeSimOps(t, busy.URL); got != st.Result.SimOps {
		t.Errorf("busy daemon reports prestored_sim_ops_total %d, want the job's sim_ops %d", got, st.Result.SimOps)
	}
}
