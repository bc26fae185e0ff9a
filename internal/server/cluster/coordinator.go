package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"prestores/internal/bench"
	"prestores/internal/obs"
	"prestores/internal/server"
	"prestores/internal/telemetry"
)

// Config tunes a Coordinator.
type Config struct {
	// Shards are the worker daemons' base URLs (e.g. http://w1:8344).
	// At least one is required.
	Shards []string
	// Replicas is the virtual-node count per shard on the hash ring;
	// <= 0 means the package default (128).
	Replicas int
	// RequestTimeout bounds each unary proxied call (submit, status,
	// cancel, listings); <= 0 means 30 s. Streams are never timed.
	RequestTimeout time.Duration
	// ProbeInterval is the health-probe period; <= 0 means 2 s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe; <= 0 means 2 s.
	ProbeTimeout time.Duration
	// MaxRequeues bounds how many times one job may be rerouted after
	// shard loss; <= 0 means 2 × len(Shards).
	MaxRequeues int
	// MaxJobs bounds tracked job mappings, oldest evicted first;
	// <= 0 means 4096.
	MaxJobs int
	// AutotuneWorkers sizes the embedded autotune host's worker pool —
	// the number of concurrent autotuning searches (each search fans its
	// candidate evaluations out across the shards); <= 0 means 2.
	AutotuneWorkers int
	// Backoff paces retries against a shard answering 429 during a
	// requeue or a chunk fan-out, and stream reconnects. The zero value
	// is the shared default schedule.
	Backoff Backoff
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
	// Transport overrides the HTTP transport (tests); nil means default.
	Transport http.RoundTripper
	// Instance labels the coordinator's spans, typically its listen
	// address. Empty is fine for tests.
	Instance string
	// Flight is the always-on flight recorder shared with the embedded
	// host; nil means a fresh default-sized one.
	Flight *obs.FlightRecorder
}

// Coordinator fronts a fleet of prestored worker shards with the same
// HTTP surface a single daemon exposes, built from the daemon's route
// table. Submits are routed by consistent hashing of their content
// address (server.Key, the key the shards cache under), so identical
// work — however it is spelled — always lands on the same shard and the
// shards' result caches compose into a distributed cache. Status,
// stream, artifact and cancel requests are proxied to the owning shard.
// When a shard dies, its jobs are requeued to the next ring position
// and client streams resume at the exact byte offset already forwarded
// — output determinism (the golden byte-identity guard) makes the
// re-run's bytes identical, so clients cannot observe the failover.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	client *Client
	prober *prober
	mux    *http.ServeMux
	log    *slog.Logger

	// tuner is the embedded host: a full worker daemon that runs the
	// coordinator-resident jobs — POST /v1/autotune searches whose
	// candidate evaluations fan out across the shards through
	// clusterEvaluator, and POST /v1/analyses trace analyses whose
	// per-chunk map steps fan out through clusterAnalyzer (the trace
	// store lives on the coordinator too). Its job IDs ("job-N") are
	// disjoint from routed ones ("cjob-N"), which is how /v1/jobs
	// dispatch tells them apart.
	tuner *server.Server

	mu     sync.Mutex
	closed bool
	seq    uint64
	jobs   map[string]*cjob
	order  []string // job IDs, eviction order

	tracer *obs.Tracer // routing/requeue spans, merged with shard spans per job
	spans  *obs.Store
	flight *obs.FlightRecorder

	m     cmetrics
	start time.Time
}

// cjob is the coordinator's view of one routed job: where it lives
// now, the original submit body (the requeue payload), and the
// terminal status once known.
type cjob struct {
	id   string
	kind string
	path string // submit path, e.g. /v1/experiments
	key  string // content address (server.Key), the ring placement
	body []byte // original submit body, forwarded verbatim

	// sc is the job's root span context on the coordinator (trace
	// continued from the client's traceparent header when present);
	// parentSpan is the client span it nests under. submitted is the
	// root span's start; the span closes at the first terminal status.
	sc         obs.SpanContext
	parentSpan obs.SpanID
	submitted  time.Time

	// routeMu serializes requeues; mu guards the fields below.
	routeMu  sync.Mutex
	mu       sync.Mutex
	shard    int
	remoteID string
	requeues int
	result   *server.JobStatus // terminal status, ID already rewritten
}

func (j *cjob) placement() (shard int, remoteID string, result *server.JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shard, j.remoteID, j.result
}

var errNoHealthyShard = errors.New("no healthy worker shard")

// New builds a Coordinator over the given shards and starts its
// health prober. Serve Handler(), stop with Shutdown.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one worker shard is required")
	}
	for i, s := range cfg.Shards {
		cfg.Shards[i] = strings.TrimRight(s, "/")
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = 2 * len(cfg.Shards)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Flight == nil {
		cfg.Flight = obs.NewFlightRecorder(0)
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.Shards, cfg.Replicas),
		client: NewClient(cfg.RequestTimeout, cfg.Backoff, cfg.Transport),
		log:    cfg.Logger,
		jobs:   map[string]*cjob{},
		spans:  obs.NewStore(0, 0),
		flight: cfg.Flight,
		start:  time.Now(),
	}
	c.tracer = &obs.Tracer{Service: "coordinator", Instance: cfg.Instance, Store: c.spans}
	c.registerMetrics()
	c.prober = newProber(cfg.Shards, c.client, cfg.ProbeInterval, cfg.ProbeTimeout, c.log,
		func(shard int, healthy bool) {
			if !healthy {
				c.m.probeDowns.Inc(cfg.Shards[shard])
				c.flight.Record("shard.down", "", "", cfg.Shards[shard])
			} else {
				c.flight.Record("shard.up", "", "", cfg.Shards[shard])
			}
		})
	tuneWorkers := cfg.AutotuneWorkers
	if tuneWorkers <= 0 {
		tuneWorkers = 2
	}
	c.tuner = server.New(server.Config{
		Workers:           tuneWorkers,
		AutotuneEvaluator: clusterEvaluator{c: c},
		ChunkAnalyzer:     clusterAnalyzer{c: c},
		Logger:            cfg.Logger,
		Instance:          "embedded",
		Flight:            cfg.Flight, // one black box for the whole coordinator process
	})
	c.routes()
	go c.prober.run()
	return c, nil
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Shutdown stops the prober, refuses new submits and drains the
// embedded autotune host. The coordinator runs no routed jobs of its
// own — in-flight proxied streams end when their client or shard side
// does.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.prober.close()
	return c.tuner.Shutdown(ctx)
}

// ---- HTTP surface ----

// routes builds the coordinator's mux from the daemon's route table,
// serving each route the way the table says. Routes the coordinator
// answers itself need a handler here; ones without are left out, which
// the route-parity test reports.
func (c *Coordinator) routes() {
	self := map[string]http.HandlerFunc{
		"GET /metrics":                 c.handleMetrics,
		"GET /healthz":                 c.handleHealthz,
		"GET /v1/debug/flightrecorder": c.handleFlightRecorder,
	}
	owner := map[string]func(http.ResponseWriter, *http.Request, *cjob){
		"GET /v1/jobs/{id}":        c.getJob,
		"GET /v1/jobs/{id}/stream": c.streamJob,
		"GET /v1/jobs/{id}/spans":  c.jobSpans,
		"DELETE /v1/jobs/{id}":     c.cancelJob,
	}
	c.mux = http.NewServeMux()
	for _, rt := range server.Routes() {
		var h http.HandlerFunc
		switch rt.Cluster {
		case server.Routed:
			h = c.submitHandler(rt)
		case server.Embedded:
			h = c.embedded
		case server.AnyShard:
			h = c.passthrough
		case server.Owner:
			serve := owner[rt.Pattern]
			if serve == nil {
				serve = c.proxyToOwner
			}
			h = c.owned(serve)
		case server.Self:
			h = self[rt.Pattern]
		}
		if h != nil {
			c.mux.HandleFunc(rt.Pattern, h)
		}
	}
}

// relay answers with a shard's response verbatim.
func relay(w http.ResponseWriter, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Code)
	w.Write(resp.Body)
}

// submitHandler routes one submit: compute its content address, walk
// the ring's preference order over healthy shards, forward the body
// verbatim, and rewrite the answering shard's job ID into the
// coordinator's namespace. Application-level answers (429 queue full,
// 400 bad spec, 404 unknown experiment) pass through untouched — only
// a shard that fails to answer at all is demoted and skipped.
func (c *Coordinator) submitHandler(rt server.Route) http.HandlerFunc {
	kind, path := rt.Kind, rt.Path()
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		if c.isClosed() {
			server.WriteError(w, http.StatusServiceUnavailable, "shutting down")
			return
		}
		key, err := server.Key(kind, body)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}

		// The routed job's root span on the coordinator: it continues
		// the client's trace (traceparent header) when one was sent, and
		// every shard attempt propagates it downstream, so client span,
		// coordinator routing and shard-side execution share a trace ID.
		clientSC, _ := obs.Extract(r.Header)
		sc := c.tracer.Child(clientSC)
		submitted := time.Now()
		rctx := obs.ContextWithSpan(r.Context(), sc)

		tried := 0
		for _, shard := range c.ring.Sequence(key) {
			if !c.prober.healthy(shard) {
				continue
			}
			tried++
			attempt := time.Now()
			resp, err := c.client.Do(rctx, "POST", c.cfg.Shards[shard]+path, "application/json", body)
			if err != nil {
				if r.Context().Err() != nil {
					return // client gone; nothing to answer
				}
				c.tracer.Record(sc, "route", attempt, time.Now(),
					obs.KV("shard", c.cfg.Shards[shard]), obs.KV("kind", kind), obs.KV("outcome", "shard-failed"))
				c.shardFailed(shard, "submit", err)
				continue
			}
			st := resp.Job()
			if st == nil {
				relay(w, resp) // application-level answer (429/400/404/...)
				return
			}
			cached := resp.Code == http.StatusOK
			c.tracer.Record(sc, "route", attempt, time.Now(),
				obs.KV("shard", c.cfg.Shards[shard]), obs.KV("kind", kind),
				obs.KV("remote", st.ID), obs.KV("cached", fmt.Sprint(cached)))
			j := &cjob{kind: kind, path: path, key: key, body: body,
				shard: shard, remoteID: st.ID,
				sc: sc, parentSpan: clientSC.Span, submitted: submitted}
			if cached { // shard cache hit: already terminal
				c.m.cacheHits.Inc(c.cfg.Shards[shard])
			} else {
				c.m.routed.Inc(c.cfg.Shards[shard])
			}
			c.addJob(j)
			*st = j.rewrite(*st)
			if cached {
				res := *st
				j.mu.Lock()
				j.result = &res
				j.mu.Unlock()
				c.closeRootSpan(j, res.State) // born terminal
			} else {
				c.flight.Recordf("job.routed", j.id, sc.Trace.String(), "%s -> %s (%s)",
					kind, c.cfg.Shards[shard], j.remoteID)
			}
			c.log.Info("job routed", "job", j.id, "kind", kind,
				"shard", c.cfg.Shards[shard], "remote", j.remoteID, "cached", cached,
				"trace", sc.Trace.String())
			if server.StreamRequested(r) {
				c.streamProxy(w, r, j, 0)
				return
			}
			server.WriteJSON(w, resp.Code, st)
			return
		}
		c.m.rejected.Inc()
		c.flight.Record("job.rejected", "", sc.Trace.String(), kind)
		if tried == 0 {
			server.WriteError(w, http.StatusServiceUnavailable, "%v (of %d)", errNoHealthyShard, len(c.cfg.Shards))
			return
		}
		server.WriteError(w, http.StatusBadGateway, "every healthy shard failed to accept the job")
	}
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// embedded delegates a request to the embedded host: autotuning
// searches (whose candidate evaluations go back through the cluster
// surface and are routed to shards like any other eval submit) and the
// trace pipeline (uploads land in the embedded host's trace store;
// analysis jobs run there with per-chunk work fanned out across the
// shards by chunk content-address).
func (c *Coordinator) embedded(w http.ResponseWriter, r *http.Request) {
	if c.isClosed() {
		server.WriteError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	c.tuner.Handler().ServeHTTP(w, r)
}

// owned dispatches a /v1/jobs/{id} request by ID namespace: routed jobs
// carry "cjob-" IDs and are served for the shard that owns them;
// everything else belongs to the embedded host and is answered by it
// directly.
func (c *Coordinator) owned(serve func(http.ResponseWriter, *http.Request, *cjob)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !strings.HasPrefix(id, "cjob-") {
			c.tuner.Handler().ServeHTTP(w, r)
			return
		}
		j := c.job(id)
		if j == nil {
			server.WriteError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		serve(w, r, j)
	}
}

// addJob registers a routed job under a coordinator-namespaced ID
// ("cjob-N", disjoint from the workers' "job-N") and evicts the
// oldest mappings beyond the bound.
func (c *Coordinator) addJob(j *cjob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	j.id = fmt.Sprintf("cjob-%d", c.seq)
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	for len(c.order) > c.cfg.MaxJobs {
		delete(c.jobs, c.order[0])
		c.order = c.order[1:]
	}
}

func (c *Coordinator) job(id string) *cjob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// shardFailed demotes a shard after a call it failed to answer.
func (c *Coordinator) shardFailed(shard int, op string, err error) {
	c.m.shardErrors.Inc(c.cfg.Shards[shard])
	c.flight.Recordf("shard.error", "", "", "%s %s: %v", c.cfg.Shards[shard], op, err)
	c.log.Warn("shard call failed", "shard", c.cfg.Shards[shard], "op", op, "err", err)
	c.prober.markDown(shard)
}

// setResult records a terminal status (ID already rewritten).
func (c *Coordinator) setResult(j *cjob, st server.JobStatus) {
	j.mu.Lock()
	first := j.result == nil
	if first {
		j.result = &st
	}
	j.mu.Unlock()
	if !first {
		return
	}
	c.closeRootSpan(j, st.State)
	if st.State == "done" {
		c.m.jobsDone.Inc()
	}
}

// closeRootSpan emits the routed job's root span, spanning submit to
// terminal status. Route/requeue child spans nest under it, so one
// trace shows the job's full history across every shard it touched.
func (c *Coordinator) closeRootSpan(j *cjob, state string) {
	c.tracer.Add(obs.Span{Trace: j.sc.Trace, ID: j.sc.Span, Parent: j.parentSpan, Name: "job",
		Start: j.submitted.UnixNano(), End: time.Now().UnixNano(),
		Attrs: []obs.Attr{obs.KV("kind", j.kind), obs.KV("job", j.id), obs.KV("state", state)}})
	c.flight.Record("job."+state, j.id, j.sc.Trace.String(), j.kind)
}

// rewrite maps a shard's job status into the coordinator's namespace.
// The key stays the shard's: it is the content address the job was
// placed by.
func (j *cjob) rewrite(st server.JobStatus) server.JobStatus {
	st.ID = j.id
	return st
}

// requeue reroutes a job off a lost shard to the next healthy ring
// position, resubmitting the original body verbatim. The failover
// target's local cache may already hold the result (it ran the key
// before, or the job finished just before the shard died and another
// client warmed it) — then the requeue resolves to a terminal status
// immediately. 429s from the target are absorbed by the shared submit
// loop within one request timeout. Safe to call from concurrent
// proxies: only the caller that still observes the failed placement
// moves the job.
func (c *Coordinator) requeue(ctx context.Context, j *cjob, failedShard int, failedRemoteID string) error {
	j.routeMu.Lock()
	defer j.routeMu.Unlock()
	shard, remoteID, res := j.placement()
	if res != nil {
		return nil // finished before we got here
	}
	if shard != failedShard || remoteID != failedRemoteID {
		return nil // a concurrent proxy already moved it
	}
	j.mu.Lock()
	over := j.requeues >= c.cfg.MaxRequeues
	if !over {
		j.requeues++
	}
	j.mu.Unlock()
	if over {
		return fmt.Errorf("job %s exceeded %d requeues", j.id, c.cfg.MaxRequeues)
	}

	// The resubmit continues the job's trace: the replacement shard's
	// spans land under the same trace ID as the lost shard's, so the
	// merged span tree shows the whole failover.
	ctx = obs.ContextWithSpan(ctx, j.sc)
	rqStart := time.Now()
	from := c.cfg.Shards[failedShard]
	for _, target := range c.ring.Sequence(j.key) {
		if target == failedShard || !c.prober.healthy(target) {
			continue
		}
		to := c.cfg.Shards[target]
		resp, err := c.submitRetrying(ctx, to+j.path, "application/json", j.body)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, ErrQueueFull):
			return fmt.Errorf("shard %s: %w", to, err)
		case err != nil:
			c.shardFailed(target, "requeue", err)
			continue // next shard
		}
		st := resp.Job()
		switch {
		case st != nil && resp.Code == http.StatusAccepted:
			j.mu.Lock()
			j.shard, j.remoteID = target, st.ID
			j.mu.Unlock()
			c.m.requeued.Inc(from)
			c.m.routed.Inc(to)
			c.tracer.Record(j.sc, "requeue", rqStart, time.Now(),
				obs.KV("from", from), obs.KV("to", to), obs.KV("remote", st.ID))
			c.flight.Recordf("job.requeued", j.id, j.sc.Trace.String(), "%s -> %s (%s)", from, to, st.ID)
			c.log.Warn("job requeued", "job", j.id, "from", from, "to", to, "remote", st.ID)
			return nil
		case st != nil && resp.Code == http.StatusOK:
			c.m.requeued.Inc(from)
			c.m.cacheHits.Inc(to)
			c.tracer.Record(j.sc, "requeue", rqStart, time.Now(),
				obs.KV("from", from), obs.KV("to", to), obs.KV("outcome", "cached"))
			c.flight.Recordf("job.requeued", j.id, j.sc.Trace.String(), "%s -> %s (cached result)", from, to)
			c.setResult(j, j.rewrite(*st))
			c.log.Warn("job requeued to cached result", "job", j.id, "from", from, "to", to)
			return nil
		default:
			return fmt.Errorf("shard %s rejected requeued job: %d %s", to, resp.Code, bytes.TrimSpace(resp.Body))
		}
	}
	return errNoHealthyShard
}

// submitRetrying posts to a shard through the shared 429 loop, with one
// request timeout as its retry budget.
func (c *Coordinator) submitRetrying(ctx context.Context, url, contentType string, body []byte) (*Response, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	return c.client.Submit(ctx, url, contentType, body)
}

// getJob serves a routed job's status, requeuing it when its shard is
// lost.
func (c *Coordinator) getJob(w http.ResponseWriter, r *http.Request, j *cjob) {
	shard, remoteID, res := j.placement()
	if res != nil {
		server.WriteJSON(w, http.StatusOK, *res)
		return
	}
	resp, err := c.client.Get(r.Context(), c.cfg.Shards[shard]+"/v1/jobs/"+remoteID)
	lost := false
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		c.shardFailed(shard, "status", err)
		lost = true
	} else if resp.Code == http.StatusNotFound {
		lost = true // worker restarted and lost its jobs
	}
	if lost {
		if err := c.requeue(r.Context(), j, shard, remoteID); err != nil {
			server.WriteError(w, http.StatusBadGateway, "shard lost and requeue failed: %v", err)
			return
		}
		if _, _, res := j.placement(); res != nil {
			server.WriteJSON(w, http.StatusOK, *res)
			return
		}
		server.WriteJSON(w, http.StatusOK, server.JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: "queued"})
		return
	}
	st := resp.Job()
	if st == nil {
		relay(w, resp)
		return
	}
	*st = j.rewrite(*st)
	switch st.State {
	case "done", "failed", "cancelled":
		c.setResult(j, *st)
	}
	server.WriteJSON(w, http.StatusOK, st)
}

// cancelJob DELETEs a routed job on its shard.
func (c *Coordinator) cancelJob(w http.ResponseWriter, r *http.Request, j *cjob) {
	shard, remoteID, res := j.placement()
	if res != nil {
		server.WriteJSON(w, http.StatusOK, *res)
		return
	}
	resp, err := c.client.Cancel(r.Context(), c.cfg.Shards[shard], remoteID)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		// A dead shard's job is dead with it; report it cancelled
		// rather than requeuing work nobody wants anymore.
		c.shardFailed(shard, "cancel", err)
		st := server.JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: "cancelled"}
		c.setResult(j, st)
		server.WriteJSON(w, http.StatusOK, st)
		return
	}
	st := resp.Job()
	if st == nil {
		relay(w, resp)
		return
	}
	server.WriteJSON(w, resp.Code, j.rewrite(*st))
}

// proxyToOwner forwards a job request (a telemetry artifact) to the
// owning shard, with the job ID swapped for the shard's.
func (c *Coordinator) proxyToOwner(w http.ResponseWriter, r *http.Request, j *cjob) {
	shard, remoteID, _ := j.placement()
	path := "/v1/jobs/" + remoteID + strings.TrimPrefix(r.URL.Path, "/v1/jobs/"+j.id)
	resp, err := c.client.Do(r.Context(), r.Method, c.cfg.Shards[shard]+path, "", nil)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		c.shardFailed(shard, "artifact", err)
		server.WriteError(w, http.StatusBadGateway, "shard %s unreachable: %v", c.cfg.Shards[shard], err)
		return
	}
	relay(w, resp)
}

// passthrough proxies a read-only listing to the first healthy shard:
// every worker runs the same binary, so any of them can answer.
func (c *Coordinator) passthrough(w http.ResponseWriter, r *http.Request) {
	for shard := range c.cfg.Shards {
		if !c.prober.healthy(shard) {
			continue
		}
		resp, err := c.client.Get(r.Context(), c.cfg.Shards[shard]+r.URL.RequestURI())
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			c.shardFailed(shard, "passthrough", err)
			continue
		}
		relay(w, resp)
		return
	}
	server.WriteError(w, http.StatusServiceUnavailable, "%v (of %d)", errNoHealthyShard, len(c.cfg.Shards))
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.isClosed() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	n := c.prober.healthyCount()
	if n == 0 {
		http.Error(w, "no healthy shards", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok (%d/%d shards healthy)\n", n, len(c.cfg.Shards))
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.m.reg.Write(w)
	// Then the federated daemon families (prestored_*): the embedded
	// host and every healthy worker shard, each sample relabeled with
	// its origin — name-disjoint from the coordinator's own
	// prestored_coordinator_* set, so one scrape covers the fleet.
	c.writeFederated(r.Context(), w)
}

// jobSpans serves a routed job's merged span timeline: the
// coordinator's own spans (root, queue routing, requeues) plus the
// owning shard's spans for the same trace, fetched live. The shard
// fetch is best-effort — a dead shard degrades the artifact to the
// coordinator's side of the story rather than failing the request.
func (c *Coordinator) jobSpans(w http.ResponseWriter, r *http.Request, j *cjob) {
	spans, dropped := c.spans.Spans(j.sc.Trace)
	shard, remoteID, _ := j.placement()
	if remote, rdropped, err := c.client.Spans(r.Context(), c.cfg.Shards[shard], remoteID); err == nil {
		spans = append(spans, remote...)
		dropped += rdropped
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteSpanTimeline(w, spans, dropped)
}

// handleFlightRecorder dumps the coordinator process's flight recorder
// (shared with the embedded host, so routing decisions, shard health
// transitions and embedded-job events interleave in one timeline).
func (c *Coordinator) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	c.flight.WriteJSON(w)
}

// ---- stream proxying ----

func (c *Coordinator) streamJob(w http.ResponseWriter, r *http.Request, j *cjob) {
	off, err := server.Offset(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.streamProxy(w, r, j, int(off))
}

// streamProxy follows a job's stream across shard failures. It tracks
// the byte offset already forwarded to the client; every (re)attach
// replays from that offset, so the client sees each output byte
// exactly once no matter how many times the job moves. A broken
// stream first reattaches to the same shard when it still looks
// healthy (a transient drop must not forfeit its cache placement);
// a dead or amnesiac shard triggers a requeue.
func (c *Coordinator) streamProxy(w http.ResponseWriter, r *http.Request, j *cjob, clientOff int) {
	ctx := r.Context()
	sw := server.NewStreamWriter(w)
	c.m.streamsUp.Add(1)
	defer c.m.streamsUp.Add(-1)

	forwarded := clientOff
	sentStatus := false
	reconnects := 0
	for {
		if ctx.Err() != nil {
			return
		}
		shard, remoteID, res := j.placement()
		if res != nil {
			emitTerminal(sw, *res, forwarded, sentStatus)
			return
		}

		s, err := c.client.Attach(ctx, c.cfg.Shards[shard], remoteID, forwarded)
		progressed := false
		if err == nil {
			var done bool
			done, progressed, err = c.copyStream(ctx, sw, j, s, &forwarded, &sentStatus)
			s.Close()
			if done {
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		if progressed {
			reconnects = 0
		}

		// The stream broke (or never attached). Decide: same-shard
		// reconnect, or requeue.
		var se *StatusError
		lostJob := errors.As(err, &se) && se.Code == http.StatusNotFound
		sameShardOK := !lostJob && reconnects < 3 &&
			c.client.Healthy(ctx, c.cfg.Shards[shard], c.cfg.ProbeTimeout)
		if sameShardOK {
			reconnects++
			if c.cfg.Backoff.Sleep(ctx, reconnects-1) != nil {
				return
			}
			continue
		}
		if !lostJob {
			c.shardFailed(shard, "stream", err)
		}
		if rqErr := c.requeue(ctx, j, shard, remoteID); rqErr != nil {
			if ctx.Err() != nil {
				return
			}
			st := server.JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: "failed",
				Error:  rqErr.Error(),
				Result: &bench.Result{ID: j.kind, Title: "lost to shard failure", Err: rqErr.Error()}}
			c.setResult(j, st)
			sw.Send(server.StreamEvent{Event: "done", Job: &st})
			return
		}
		reconnects = 0
	}
}

// copyStream forwards one attached shard stream to the client until it
// ends. Returns done=true when the terminal event was delivered (or the
// client is gone), whether any output bytes were forwarded (progress
// resets the reconnect budget), and why the stream ended otherwise.
// Duplicate status events from reattaches are suppressed; output
// offsets are accounted so reattaches never repeat a byte.
func (c *Coordinator) copyStream(ctx context.Context, sw *server.StreamWriter, j *cjob,
	s *Stream, forwarded *int, sentStatus *bool) (done, progressed bool, err error) {
	for {
		ev, err := s.Next()
		if err != nil {
			return false, progressed, err
		}
		switch ev.Event {
		case "status":
			if *sentStatus {
				continue
			}
			if ev.Job != nil {
				st := j.rewrite(*ev.Job)
				ev.Job = &st
			}
			if sw.Send(*ev) != nil {
				return true, progressed, nil // client gone: ctx will end the proxy
			}
			*sentStatus = true
		case "output":
			*forwarded += len(ev.Data)
			progressed = true
			if sw.Send(*ev) != nil {
				return true, progressed, nil
			}
		case "done":
			if ev.Job == nil {
				return false, progressed, errors.New("done event without a job status")
			}
			st := j.rewrite(*ev.Job)
			c.setResult(j, st)
			ev.Job = &st
			sw.Send(*ev)
			return true, progressed, nil
		}
		if ctx.Err() != nil {
			return true, progressed, nil
		}
	}
}

// emitTerminal serves a stream request for a job whose terminal status
// the coordinator already holds (shard cache hit, or a requeue that
// resolved to a cached result): replay the remaining output bytes and
// the done event. Deterministic output makes the suffix exact.
func emitTerminal(sw *server.StreamWriter, st server.JobStatus, forwarded int, sentStatus bool) {
	if !sentStatus && sw.Send(server.StreamEvent{Event: "status", Job: &st}) != nil {
		return
	}
	if st.Result != nil && forwarded < len(st.Result.Output) &&
		sw.Send(server.StreamEvent{Event: "output", Data: st.Result.Output[forwarded:]}) != nil {
		return
	}
	sw.Send(server.StreamEvent{Event: "done", Job: &st})
}
