package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"prestores/internal/dirtbuster"
	"prestores/internal/pmcheck"
	"prestores/internal/sim"
	"prestores/internal/trace"
)

// recordTrace records w through RecordStream into a trace.Writer with
// the given chunk target and returns the encoding and the machine line
// size.
func recordTrace(t *testing.T, w dirtbuster.Workload, chunkRecords int) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.WriterOptions{ChunkRecords: chunkRecords})
	line := dirtbuster.RecordStream(w, tw.Hook())
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), line
}

// encodedTrace records the synthetic workload in small chunks, so even
// the tiny trace spans several, and returns the encoding, its decoded
// buffer and the machine line size.
func encodedTrace(t *testing.T) ([]byte, *trace.Buffer, uint64) {
	t.Helper()
	data, line := recordTrace(t, synthWorkload(), 64)
	tb, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return data, tb, line
}

func postTrace(t *testing.T, base string, data []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestTraceUploadOneShot(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	data, _, _ := encodedTrace(t)

	code, body := postTrace(t, ts.URL, data)
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/traces: status %d: %s", code, body)
	}
	var info TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Address != traceAddress(data) {
		t.Fatalf("address %q, want content hash %q", info.Address, traceAddress(data))
	}
	if info.Bytes != int64(len(data)) || info.Chunks < 2 || info.Records == 0 {
		t.Fatalf("implausible info: %+v", info)
	}

	// Re-uploading identical bytes dedupes onto the same entry.
	code, body = postTrace(t, ts.URL, data)
	if code != http.StatusCreated {
		t.Fatalf("re-POST: status %d: %s", code, body)
	}
	var again TraceInfo
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Address != info.Address {
		t.Fatalf("re-upload address %q != %q", again.Address, info.Address)
	}

	// Listing, fetching and deleting round-trip.
	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list []TraceInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Address != info.Address {
		t.Fatalf("list = %+v, want the one trace", list)
	}
	resp, err = http.Get(ts.URL + "/v1/traces/" + info.Address)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, data) {
		t.Fatalf("GET trace: status %d, %d bytes (want %d)", resp.StatusCode, len(got), len(data))
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/traces/"+info.Address, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE trace: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/traces/" + info.Address)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET deleted trace: status %d, want 404", resp.StatusCode)
	}
}

func putPart(t *testing.T, base, id string, offset int64, part []byte) (int, []byte) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/traces/uploads/%s?offset=%d", base, id, offset)
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(part))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func TestTraceUploadResumable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	data, _, _ := encodedTrace(t)

	code, body := postJSON(t, ts.URL+"/v1/traces?resume=1", nil)
	if code != http.StatusCreated {
		t.Fatalf("open resumable upload: status %d: %s", code, body)
	}
	var opened struct {
		Upload string `json:"upload"`
		Offset int64  `json:"offset"`
	}
	if err := json.Unmarshal(body, &opened); err != nil {
		t.Fatal(err)
	}

	// Upload in three parts; replay part 2 (a stale retry) and verify
	// the duplicate is acknowledged; then try a wrong offset and use
	// the 409's offset to resume.
	third := len(data) / 3
	parts := [][]byte{data[:third], data[third : 2*third], data[2*third:]}
	off := int64(0)
	for i, p := range parts {
		code, body := putPart(t, ts.URL, opened.Upload, off, p)
		if code != http.StatusOK {
			t.Fatalf("part %d: status %d: %s", i, code, body)
		}
		off += int64(len(p))
		if i == 1 {
			if code, _ := putPart(t, ts.URL, opened.Upload, off-int64(len(p)), p); code != http.StatusOK {
				t.Fatalf("duplicate part retry: status %d, want 200", code)
			}
		}
	}
	code, body = putPart(t, ts.URL, opened.Upload, off+999, []byte("x"))
	if code != http.StatusConflict {
		t.Fatalf("bad offset: status %d, want 409: %s", code, body)
	}
	var conflict struct {
		Offset int64 `json:"offset"`
	}
	if err := json.Unmarshal(body, &conflict); err != nil {
		t.Fatal(err)
	}
	if conflict.Offset != off {
		t.Fatalf("409 offset %d, want %d", conflict.Offset, off)
	}

	code, body = postJSON(t, ts.URL+"/v1/traces/uploads/"+opened.Upload+"/commit", nil)
	if code != http.StatusCreated {
		t.Fatalf("commit: status %d: %s", code, body)
	}
	var info TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Address != traceAddress(data) {
		t.Fatalf("committed address %q, want %q", info.Address, traceAddress(data))
	}
	// The upload is gone once committed.
	if code, _ := putPart(t, ts.URL, opened.Upload, off, []byte("x")); code != http.StatusNotFound {
		t.Fatalf("PUT after commit: status %d, want 404", code)
	}
}

func TestTraceUploadRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, TraceQuotaBytes: 128})

	// Corrupt bytes are rejected at validation time.
	if code, body := postTrace(t, ts.URL, []byte("not a trace")); code != http.StatusBadRequest {
		t.Fatalf("corrupt trace: status %d, want 400: %s", code, body)
	}
	// A valid trace over the 128-byte quota is rejected with 413.
	data, _, _ := encodedTrace(t)
	if code, body := postTrace(t, ts.URL, data); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-quota trace: status %d, want 413: %s", code, body)
	}
	// Resumable parts hit the same quota.
	code, body := postJSON(t, ts.URL+"/v1/traces?resume=1", nil)
	if code != http.StatusCreated {
		t.Fatalf("open upload: status %d: %s", code, body)
	}
	var opened struct {
		Upload string `json:"upload"`
	}
	if err := json.Unmarshal(body, &opened); err != nil {
		t.Fatal(err)
	}
	if code, _ := putPart(t, ts.URL, opened.Upload, 0, data); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-quota part: status %d, want 413", code)
	}
}

func TestAnalysisEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	data, tb, line := encodedTrace(t)

	code, body := postTrace(t, ts.URL, data)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var info TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	spec := map[string]any{"trace": info.Address, "app": "synthwl", "line_size": line}
	code, body = postJSON(t, ts.URL+"/v1/analyses", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit analysis: status %d: %s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st = waitFinal(t, ts.URL, st.ID)
	if st.State != "done" {
		t.Fatalf("analysis %s: %s", st.State, st.Result.Err)
	}

	want := dirtbuster.AnalyzeTrace("synthwl", tb, line, dirtbuster.Config{}).Render() + "\n"
	if st.Result.Output != want {
		t.Fatalf("sharded analysis output differs from monolithic\n--- got ---\n%s\n--- want ---\n%s",
			st.Result.Output, want)
	}

	// An identical resubmit is a cache hit.
	code, body = postJSON(t, ts.URL+"/v1/analyses", spec)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200 cache hit: %s", code, body)
	}
	var hit JobStatus
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Result.Output != want {
		t.Fatalf("resubmit not served from cache: %+v", hit)
	}

	// Unknown traces are rejected at submit time, not at run time.
	if code, _ := postJSON(t, ts.URL+"/v1/analyses", map[string]any{"trace": "nope"}); code != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", code)
	}

	// The trace-pipeline metric families are live.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"prestored_trace_uploads_total 1",
		"prestored_trace_stored 1",
		"prestored_trace_analyses_total 1",
	} {
		if !strings.Contains(string(mtext), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAnalyzeChunkEndpoint exercises the synchronous per-chunk map
// primitive the cluster coordinator fans out.
func TestAnalyzeChunkEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	data, tb, line := encodedTrace(t)

	cr, err := trace.NewChunkReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cr.Next()
	if err != nil {
		t.Fatal(err)
	}
	body, err := StatsChunkRequest(c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/analyses/chunks", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st dirtbuster.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Records != uint64(len(c.Records)) {
		t.Fatalf("stats phase: status %d, records %d (want %d)", resp.StatusCode, st.Records, len(c.Records))
	}

	// Partial phase under a real plan.
	full := dirtbuster.NewStats()
	tb.Replay(full.AddRecord)
	plan := full.Plan("synthwl", line, dirtbuster.Config{})
	body, err = PartialChunkRequest(plan, c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/analyses/chunks", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial phase: status %d: %s", resp.StatusCode, raw)
	}
	pt, err := dirtbuster.DecodePartial(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got := pt.Chunks(); len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("partial covers %v, want [[0 0]]", got)
	}

	// Unknown phases and garbage framing are rejected.
	bad, err := EncodeChunkRequest(chunkJobHeader{Phase: "nope"}, c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/analyses/chunks", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown phase: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/analyses/chunks", "application/octet-stream", strings.NewReader("xx"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated request: status %d, want 400", resp.StatusCode)
	}
}

// commitWorkload stores to the persistent window, cleans and fences
// half of the lines and then commits with an atomic, so every
// /v1/trace mode has something to report, pmcheck violations included.
func commitWorkload() dirtbuster.Workload {
	return dirtbuster.Workload{
		Name:       "commitwl",
		NewMachine: sim.MachineA,
		Run: func(m *sim.Machine) {
			c := m.Core(0)
			buf := make([]byte, 256)
			c.PushFunc("commitwl.write")
			for i := uint64(0); i < 200; i++ {
				c.Write(1<<40+i*256, buf)
				if i%2 == 0 {
					c.Prestore(1<<40+i*256, 256, sim.Clean)
				}
			}
			c.Fence()
			c.PopFunc()
			c.PushFunc("commitwl.commit")
			c.CAS(1<<40+1<<30, 0, 1)
			c.PopFunc()
		},
	}
}

// TestTraceModesMatchRecordingChain checks each /v1/trace mode against
// the same analysis run over a RecordStream → trace.Writer →
// ChunkReader chain in memory.
func TestTraceModesMatchRecordingChain(t *testing.T) {
	wl := commitWorkload()
	_, ts := newTestServer(t, Config{
		Workers:   1,
		Workloads: func(bool) []dirtbuster.Workload { return []dirtbuster.Workload{wl} },
	})
	data, line := recordTrace(t, wl, 0)
	rep, err := dirtbuster.AnalyzeChunkSource(wl.Name, dirtbuster.SeekSource(bytes.NewReader(data)), line, dirtbuster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fts, err := trace.TimeByFunction(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pmcheck.Check(bytes.NewReader(data), pmcheck.Config{Base: 1 << 40, Size: 256 << 30, LineSize: line})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok() || !rep.WriteIntensive {
		t.Fatalf("test workload too tame: pmcheck ok %v, write-intensive %v", res.Ok(), rep.WriteIntensive)
	}
	for mode, want := range map[string]string{
		"dirtbuster": rep.Render() + "\n",
		"report":     fts.Render(),
		"pmcheck":    res.Render(),
	} {
		code, body := postJSON(t, ts.URL+"/v1/trace", map[string]any{"workload": wl.Name, "mode": mode})
		if code != http.StatusAccepted {
			t.Fatalf("trace mode %q: status %d: %s", mode, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		st = waitFinal(t, ts.URL, st.ID)
		if st.State != "done" || st.Result.Output != want {
			t.Fatalf("trace mode %q: state %s, output differs from the recording chain\n--- got ---\n%s\n--- want ---\n%s",
				mode, st.State, st.Result.Output, want)
		}
	}
}

// TestTraceJobRemovesRecording checks that a /v1/trace job's temporary
// recording is gone after the job, both when it finishes and when it is
// cancelled mid-recording.
func TestTraceJobRemovesRecording(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir) // os.CreateTemp("") creates the recording here
	started, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	blocking := dirtbuster.Workload{
		Name:       "blockwl",
		NewMachine: sim.MachineA,
		Run: func(m *sim.Machine) {
			c := m.Core(0)
			c.PushFunc("blockwl.write")
			for i := uint64(0); i < 100; i++ {
				c.Write(1<<40+i*64, make([]byte, 64))
			}
			close(started)
			<-release
			c.Write(1<<40, make([]byte, 64))
			c.PopFunc()
		},
	}
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Workloads: func(bool) []dirtbuster.Workload {
			return []dirtbuster.Workload{synthWorkload(), blocking}
		},
	})
	t.Cleanup(unblock) // a failed check must not leave the worker blocked at shutdown
	leftovers := func() []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	run := func(workload string) JobStatus {
		t.Helper()
		code, body := postJSON(t, ts.URL+"/v1/trace", map[string]any{"workload": workload, "mode": "report"})
		if code != http.StatusAccepted {
			t.Fatalf("trace %s: status %d: %s", workload, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	if st := waitFinal(t, ts.URL, run("synthwl").ID); st.State != "done" {
		t.Fatalf("trace job %s: %s", st.State, st.Error)
	}
	if left := leftovers(); len(left) != 0 {
		t.Fatalf("finished trace job left %v behind", left)
	}

	st := run("blockwl")
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("recording never started")
	}
	if left := leftovers(); len(left) != 1 {
		t.Fatalf("mid-recording, the temp dir holds %v, want the one recording", left)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	unblock()
	if st = waitFinal(t, ts.URL, st.ID); st.State != "cancelled" {
		t.Fatalf("deleted trace job ended %s: %s", st.State, st.Error)
	}
	if left := leftovers(); len(left) != 0 {
		t.Fatalf("cancelled trace job left %v behind", left)
	}
}
