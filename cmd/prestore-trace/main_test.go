package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prestores/internal/bench"
	"prestores/internal/server"
	"prestores/internal/server/cluster"
)

// testClient is the shared client with a near-instant backoff.
func testClient(timeout time.Duration) *cluster.Client {
	return cluster.NewClient(timeout, cluster.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond}, nil)
}

func writeTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rec.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestUploadResumesRetriesAndStreams drives the uploader against a fake
// daemon that claims part of the recording already arrived (409 with
// its offset), answers the first analysis submit with a full queue
// (429), and serves the job only as a stream — there is no status
// endpoint to poll.
func TestUploadResumesRetriesAndStreams(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 64)
	const resumeAt = 400
	const report = "the report\n"

	var mu sync.Mutex
	var stored []byte
	var puts, submits int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("resume") != "1" {
			t.Errorf("upload opened without ?resume=1: %s", r.URL)
		}
		server.WriteJSON(w, http.StatusCreated, server.UploadStatus{Upload: "u1"})
	})
	mux.HandleFunc("PUT /v1/traces/uploads/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		off, _ := server.Offset(r)
		part, _ := io.ReadAll(r.Body)
		puts++
		if puts == 1 {
			// An earlier attempt already delivered the first bytes.
			stored = append(stored, data[:resumeAt]...)
		}
		if off != int64(len(stored)) {
			server.WriteJSON(w, http.StatusConflict,
				server.UploadStatus{Upload: "u1", Offset: int64(len(stored)), Error: "offset mismatch"})
			return
		}
		stored = append(stored, part...)
		server.WriteJSON(w, http.StatusOK, server.UploadStatus{Upload: "u1", Offset: int64(len(stored))})
	})
	mux.HandleFunc("POST /v1/traces/uploads/{id}/commit", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if !bytes.Equal(stored, data) {
			t.Errorf("server assembled %d bytes, want the %d-byte recording", len(stored), len(data))
		}
		server.WriteJSON(w, http.StatusCreated, server.TraceInfo{Address: "addr1", Bytes: int64(len(stored)), Chunks: 1, Records: 7})
	})
	mux.HandleFunc("POST /v1/analyses", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		submits++
		first := submits == 1
		mu.Unlock()
		if first {
			server.WriteError(w, http.StatusTooManyRequests, "job queue full")
			return
		}
		var spec struct{ Trace string }
		json.NewDecoder(r.Body).Decode(&spec)
		if spec.Trace != "addr1" {
			t.Errorf("analysis submitted for trace %q, want the committed address", spec.Trace)
		}
		server.WriteJSON(w, http.StatusAccepted, server.JobStatus{ID: "job-7", Kind: "analysis", State: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		sw := server.NewStreamWriter(w)
		sw.Send(server.StreamEvent{Event: "status", Job: &server.JobStatus{ID: "job-7", State: "running"}})
		sw.Send(server.StreamEvent{Event: "output", Data: "pass 1 of 2\n" + report})
		sw.Send(server.StreamEvent{Event: "done", Job: &server.JobStatus{ID: "job-7", State: "done",
			Result: &bench.Result{ID: "analysis/addr1", Output: report}}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var log bytes.Buffer
	got, err := uploadAndAnalyze(context.Background(), testClient(time.Second), ts.URL, writeTrace(t, data), "app", 64, &log)
	if err != nil {
		t.Fatal(err)
	}
	if got != report {
		t.Errorf("report = %q, want %q", got, report)
	}
	mu.Lock()
	defer mu.Unlock()
	if submits != 2 {
		t.Errorf("analysis submitted %d times, want 2 (429, then accepted)", submits)
	}
	if puts != 2 {
		t.Errorf("%d part uploads, want 2 (409 at offset 0, then the rest from %d)", puts, resumeAt)
	}
	if !strings.Contains(log.String(), "uploaded 1024 bytes as addr1") {
		t.Errorf("upload log = %q", log.String())
	}
}

// TestUploadTimesOutOnHungDaemon: a daemon that accepts the connection
// but never answers fails the upload instead of hanging it.
func TestUploadTimesOutOnHungDaemon(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)

	done := make(chan error, 1)
	go func() {
		_, err := uploadAndAnalyze(context.Background(), testClient(50*time.Millisecond), ts.URL,
			writeTrace(t, []byte("x")), "app", 64, io.Discard)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("upload against a hung daemon succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("upload hung on a daemon that never answers")
	}
}
