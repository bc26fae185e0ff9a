package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	netpprof "net/http/pprof"
	"slices"
	"strconv"
	"strings"
)

// This file is the service vocabulary shared by the daemon, the cluster
// coordinator and the clients: the content address of a submit, the
// route table, and the wire types and helpers of the HTTP surface.

// Serve says how a cluster coordinator serves one of the daemon's
// routes. The zero value is deliberately invalid: a route added to the
// table without a decision is not served by the coordinator, and the
// route-parity test fails.
type Serve int

const (
	// Routed submits are placed on a shard by consistent hashing of
	// their content address (Key).
	Routed Serve = iota + 1
	// Embedded routes are served by the coordinator's embedded host:
	// autotune searches and the trace pipeline.
	Embedded
	// AnyShard routes are read-only listings any healthy shard answers.
	AnyShard
	// Owner routes address one job and go to the shard that owns it.
	Owner
	// Self routes describe the serving process itself (health, metrics,
	// flight recorder); the coordinator answers them with its own.
	Self
	// ShardOnly routes are not served through a coordinator: the
	// per-chunk map step a coordinator itself fans out, and profiling.
	ShardOnly
)

// Route is one entry of the daemon's HTTP surface.
type Route struct {
	// Pattern is the net/http.ServeMux pattern, "METHOD /path".
	Pattern string
	// Cluster is how a coordinator serves the route.
	Cluster Serve
	// Kind is the job kind of a submit route; empty otherwise.
	Kind string

	spec   func() spec // submit routes: a fresh typed body
	handle func(*Server, http.ResponseWriter, *http.Request)
	pprof  bool // registered only with Config.EnablePprof
}

// Path is the route's URL path (the pattern without its method).
func (rt Route) Path() string {
	_, path, _ := strings.Cut(rt.Pattern, " ")
	return path
}

var table = []Route{
	{Pattern: "POST /v1/experiments", Cluster: Routed, Kind: "experiment", spec: func() spec { return &experimentSpec{} }},
	{Pattern: "POST /v1/dirtbuster", Cluster: Routed, Kind: "dirtbuster", spec: func() spec { return &dirtbusterSpec{} }},
	{Pattern: "POST /v1/trace", Cluster: Routed, Kind: "trace", spec: func() spec { return &traceSpec{} }},
	{Pattern: "POST /v1/scenarios", Cluster: Routed, Kind: "scenario", spec: func() spec { return &scenarioSpec{} }},
	{Pattern: "POST /v1/eval", Cluster: Routed, Kind: "eval", spec: func() spec { return &evalSpec{} }},
	{Pattern: "POST /v1/autotune", Cluster: Embedded, Kind: "autotune", spec: func() spec { return &autotuneSpec{} }},
	{Pattern: "POST /v1/analyses", Cluster: Embedded, Kind: "analysis", spec: func() spec { return &analysisSpec{} }},
	{Pattern: "POST /v1/traces", Cluster: Embedded, handle: (*Server).handleTracePost},
	{Pattern: "GET /v1/traces", Cluster: Embedded, handle: (*Server).handleTraceList},
	{Pattern: "PUT /v1/traces/uploads/{id}", Cluster: Embedded, handle: (*Server).handleTraceUploadPut},
	{Pattern: "POST /v1/traces/uploads/{id}/commit", Cluster: Embedded, handle: (*Server).handleTraceUploadCommit},
	{Pattern: "DELETE /v1/traces/uploads/{id}", Cluster: Embedded, handle: (*Server).handleTraceUploadAbort},
	{Pattern: "GET /v1/traces/{address}", Cluster: Embedded, handle: (*Server).handleTraceGet},
	{Pattern: "DELETE /v1/traces/{address}", Cluster: Embedded, handle: (*Server).handleTraceDelete},
	{Pattern: "POST /v1/analyses/chunks", Cluster: ShardOnly, handle: (*Server).handleAnalyzeChunk},
	{Pattern: "GET /v1/experiments", Cluster: AnyShard, handle: (*Server).handleListExperiments},
	{Pattern: "GET /v1/registry", Cluster: AnyShard, handle: (*Server).handleRegistry},
	{Pattern: "GET /v1/workloads", Cluster: AnyShard, handle: (*Server).handleListWorkloads},
	{Pattern: "GET /v1/jobs/{id}", Cluster: Owner, handle: (*Server).handleGetJob},
	{Pattern: "GET /v1/jobs/{id}/stream", Cluster: Owner, handle: (*Server).handleStreamJob},
	{Pattern: "GET /v1/jobs/{id}/timeline", Cluster: Owner, handle: artifact("timeline")},
	{Pattern: "GET /v1/jobs/{id}/linereport", Cluster: Owner, handle: artifact("linereport")},
	{Pattern: "GET /v1/jobs/{id}/trajectory", Cluster: Owner, handle: artifact("trajectory")},
	{Pattern: "GET /v1/jobs/{id}/winner", Cluster: Owner, handle: artifact("winner")},
	{Pattern: "GET /v1/jobs/{id}/spans", Cluster: Owner, handle: (*Server).handleJobSpans},
	{Pattern: "DELETE /v1/jobs/{id}", Cluster: Owner, handle: (*Server).handleCancelJob},
	{Pattern: "GET /metrics", Cluster: Self, handle: (*Server).handleMetrics},
	{Pattern: "GET /healthz", Cluster: Self, handle: (*Server).handleHealthz},
	{Pattern: "GET /v1/debug/flightrecorder", Cluster: Self, handle: (*Server).handleFlightRecorder},
	{Pattern: "GET /debug/pprof/", Cluster: ShardOnly, handle: static(netpprof.Index), pprof: true},
	{Pattern: "GET /debug/pprof/cmdline", Cluster: ShardOnly, handle: static(netpprof.Cmdline), pprof: true},
	{Pattern: "GET /debug/pprof/profile", Cluster: ShardOnly, handle: static(netpprof.Profile), pprof: true},
	{Pattern: "GET /debug/pprof/symbol", Cluster: ShardOnly, handle: static(netpprof.Symbol), pprof: true},
	{Pattern: "GET /debug/pprof/trace", Cluster: ShardOnly, handle: static(netpprof.Trace), pprof: true},
}

// Routes returns the daemon's route table, pprof routes included.
func Routes() []Route { return slices.Clone(table) }

func static(h http.HandlerFunc) func(*Server, http.ResponseWriter, *http.Request) {
	return func(_ *Server, w http.ResponseWriter, r *http.Request) { h(w, r) }
}

func artifact(name string) func(*Server, http.ResponseWriter, *http.Request) {
	return func(s *Server, w http.ResponseWriter, r *http.Request) { s.handleArtifact(w, r, name) }
}

// routes builds the daemon's mux from the table.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	for _, rt := range table {
		if rt.pprof && !s.cfg.EnablePprof {
			continue
		}
		if rt.spec != nil {
			s.mux.HandleFunc(rt.Pattern, s.submitHandler(rt))
			continue
		}
		h := rt.handle
		s.mux.HandleFunc(rt.Pattern, func(w http.ResponseWriter, r *http.Request) { h(s, w, r) })
	}
}

// spec is a submit body. normalize validates it and puts it in
// canonical form — defaults filled in, nested scenario specs
// canonicalized — so that every spelling of the same request encodes
// to the same JSON. run resolves it against one daemon (registry,
// workloads, trace store); its error is a 404.
type spec interface {
	normalize() error
	run(s *Server) (runFunc, error)
}

// maxSpecBytes bounds a JSON submit body.
const maxSpecBytes = 1 << 20

// Key is the content address of a submit body of the given job kind:
// the key a daemon of this build caches the job under and reports as
// JobStatus.Key, and the key a cluster coordinator places it by. It
// fails on a body the daemon would reject with 400.
func Key(kind string, body []byte) (string, error) {
	_, key, err := decodeSpec(kind, buildVersion(), body)
	return key, err
}

// decodeSpec is the typed decode of a submit body: strict JSON into
// the kind's spec type, normalized, and hashed with the version into
// its content address.
func decodeSpec(kind, version string, body []byte) (spec, string, error) {
	i := slices.IndexFunc(table, func(rt Route) bool { return rt.Kind == kind })
	if i < 0 {
		return nil, "", fmt.Errorf("unknown job kind %q", kind)
	}
	sp := table[i].spec()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sp); err != nil {
		return nil, "", fmt.Errorf("bad request body: %v", err)
	}
	if err := sp.normalize(); err != nil {
		return nil, "", err
	}
	return sp, cacheKey(kind, version, sp), nil
}

// cacheKey hashes kind, build version and the normalized spec's JSON.
// Identical work submitted twice — across time (cache), concurrently
// (coalescing) or through a coordinator (placement) — maps to the same
// key.
func cacheKey(kind, version string, sp spec) string {
	b, err := json.Marshal(sp)
	if err != nil {
		// Specs are plain structs; this cannot fail.
		panic("server: unmarshalable spec: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// submitHandler serves one submit route: decode the body into its
// canonical spec, resolve it against this daemon, and schedule it.
func (s *Server) submitHandler(rt Route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes))
		if err != nil {
			WriteError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		sp, key, err := decodeSpec(rt.Kind, s.cfg.Version, body)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		run, err := sp.run(s)
		if err != nil {
			WriteError(w, http.StatusNotFound, "%v", err)
			return
		}
		st, j, err := s.submit(rt.Kind, key, !StreamRequested(r), parentFrom(r), run)
		s.respondSubmit(w, r, st, j, err)
	}
}

// StreamEvent is one NDJSON line of a job's progress stream: a status
// line first, output chunks as the job produces them, and a done line
// carrying the final status and result.
type StreamEvent struct {
	Event string     `json:"event"` // "status", "output", "done"
	Data  string     `json:"data,omitempty"`
	Job   *JobStatus `json:"job,omitempty"`
}

// StreamWriter writes a job stream, flushing after every event so the
// reader sees progress as it happens.
type StreamWriter struct {
	enc *json.Encoder
	fl  http.Flusher
}

// NewStreamWriter starts a 200 NDJSON response on w.
func NewStreamWriter(w http.ResponseWriter) *StreamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	return &StreamWriter{enc: json.NewEncoder(w), fl: fl}
}

// Send writes one event; an error means the reader is gone.
func (sw *StreamWriter) Send(ev StreamEvent) error {
	if err := sw.enc.Encode(ev); err != nil {
		return err
	}
	if sw.fl != nil {
		sw.fl.Flush()
	}
	return nil
}

// UploadStatus answers the opening of a resumable trace upload and each
// part appended to it; a 409 carries it too, with the offset to resume
// from.
type UploadStatus struct {
	Upload string `json:"upload"`
	Offset int64  `json:"offset"`
	Error  string `json:"error,omitempty"`
}

// WriteJSON writes v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes {"error": ...}.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// StreamRequested reports whether a submit asked for ?stream=1.
func StreamRequested(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}

// Offset reads the ?offset=N resume parameter (0 when absent).
func Offset(r *http.Request) (int64, error) {
	v := r.URL.Query().Get("offset")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad offset %q (want a non-negative integer)", v)
	}
	return n, nil
}
