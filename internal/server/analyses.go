package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"prestores/internal/dirtbuster"
	"prestores/internal/obs"
	"prestores/internal/trace"
)

// ChunkAnalyzer is how an analysis job maps one chunk: in process by
// default, or fanned out across worker shards when the cluster
// coordinator injects its own implementation. Both phases are pure
// functions of the chunk (plus the plan), so the caller may invoke
// them concurrently and in any order; the driver below still applies
// partials in deterministic chunk order, which is what keeps the
// sharded report byte-identical to the monolithic one.
type ChunkAnalyzer interface {
	// Stats computes the pass-1 aggregate of one chunk.
	Stats(ctx context.Context, c *trace.Chunk) (*dirtbuster.Stats, error)
	// Partial computes the pass-2 tape of one chunk under plan.
	Partial(ctx context.Context, plan *dirtbuster.Plan, c *trace.Chunk) (*dirtbuster.Partial, error)
	// Concurrency is how many chunks the caller should keep in flight.
	Concurrency() int
}

// localAnalyzer analyzes chunks in process. Concurrency 2 pipelines
// chunk decode against analysis without monopolizing the worker pool.
type localAnalyzer struct{}

func (localAnalyzer) Stats(_ context.Context, c *trace.Chunk) (*dirtbuster.Stats, error) {
	st := dirtbuster.NewStats()
	st.AddChunk(c)
	return st, nil
}

func (localAnalyzer) Partial(_ context.Context, plan *dirtbuster.Plan, c *trace.Chunk) (*dirtbuster.Partial, error) {
	return plan.AnalyzeChunk(c), nil
}

func (localAnalyzer) Concurrency() int { return 2 }

func (s *Server) analyzer() ChunkAnalyzer {
	if s.cfg.ChunkAnalyzer != nil {
		return s.cfg.ChunkAnalyzer
	}
	return localAnalyzer{}
}

// analysisSpec is the POST /v1/analyses body: run DirtBuster over a
// stored trace as a pipeline of chunk jobs. The trace address makes
// the spec — and therefore the job's cache key — content-addressed.
type analysisSpec struct {
	Trace    string            `json:"trace"`
	App      string            `json:"app,omitempty"`
	LineSize uint64            `json:"line_size,omitempty"`
	Config   dirtbuster.Config `json:"config"`
}

// normalize fills the defaults before the spec becomes the cache key.
func (sp *analysisSpec) normalize() error {
	if sp.App == "" {
		sp.App = "trace:" + shortAddr(sp.Trace)
	}
	if sp.LineSize == 0 {
		sp.LineSize = 64
	}
	return nil
}

func (sp *analysisSpec) run(s *Server) (work, error) {
	info, ok := s.traces.info(sp.Trace)
	if !ok {
		return work{}, fmt.Errorf("unknown trace %q; upload it first (POST /v1/traces) — GET /v1/traces lists stored traces", sp.Trace)
	}
	return s.analysisWork(*sp, info), nil
}

func shortAddr(addr string) string {
	if len(addr) > 12 {
		return addr[:12]
	}
	return addr
}

// analysisWork is a chunked analysis job: the two-pass map/reduce
// pipeline over the stored trace's chunks, with per-pass progress in
// the job stream only and the rendered report as the result output.
func (s *Server) analysisWork(spec analysisSpec, info TraceInfo) work {
	id := "analysis/" + shortAddr(spec.Trace)
	title := fmt.Sprintf("chunked DirtBuster analysis of trace %s (%d chunks, %d records)",
		shortAddr(spec.Trace), info.Chunks, info.Records)
	return work{id, title, func(ctx context.Context, j *job, out io.Writer) error {
		data, ok := s.traces.get(spec.Trace)
		if !ok {
			return fmt.Errorf("trace %s no longer in the store", spec.Trace)
		}
		rep, err := s.analyzeStored(ctx, j.out, data, spec)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep.Render())
		return nil
	}}
}

// analyzeStored runs the two-pass chunk pipeline over one encoded
// trace. Pass 1 merges per-chunk Stats (orderless sums) into the step-1
// Plan; pass 2 maps chunks to Partials — concurrently, through the
// configured analyzer — and reduces them in chunk order, which keeps
// the report byte-identical to the monolithic path no matter how the
// chunk work was scheduled or which shard computed it.
func (s *Server) analyzeStored(ctx context.Context, progress io.Writer, data []byte, spec analysisSpec) (*dirtbuster.Report, error) {
	an := s.analyzer()
	conc := an.Concurrency()
	if conc < 1 {
		conc = 1
	}

	stats := dirtbuster.NewStats()
	nChunks, err := runChunks(ctx, data, conc,
		func(ctx context.Context, c *trace.Chunk) (*dirtbuster.Stats, error) {
			ctx, sp := obs.Start(ctx, "analysis.chunk", obs.KV("phase", "stats"))
			defer sp.End()
			return an.Stats(ctx, c)
		},
		func(_ int, st *dirtbuster.Stats) error {
			s.m.traceChunks.Inc()
			stats.Merge(st)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("pass 1 (stats): %w", err)
	}
	plan := stats.Plan(spec.App, spec.LineSize, spec.Config)
	fmt.Fprintf(progress, "pass 1: %d chunks, %d records, store share %.3f, write-intensive=%v\n",
		nChunks, stats.Records, plan.StoreShare, plan.WriteIntensive)

	a := plan.NewAnalysis()
	if plan.WriteIntensive {
		applied, err := runChunks(ctx, data, conc,
			func(ctx context.Context, c *trace.Chunk) (*dirtbuster.Partial, error) {
				ctx, sp := obs.Start(ctx, "analysis.chunk", obs.KV("phase", "partial"))
				defer sp.End()
				return an.Partial(ctx, plan, c)
			},
			func(_ int, pt *dirtbuster.Partial) error {
				s.m.traceChunks.Inc()
				return a.Apply(pt)
			})
		if err != nil {
			return nil, fmt.Errorf("pass 2 (partials): %w", err)
		}
		if applied != nChunks || a.Applied() != nChunks {
			return nil, fmt.Errorf("pass 2 applied %d of %d chunks", a.Applied(), nChunks)
		}
		fmt.Fprintf(progress, "pass 2: %d partials merged in chunk order\n", applied)
	}
	s.m.traceAnalyses.Inc()
	return a.Report(), nil
}

// runChunks streams the trace's chunks through fn with conc in flight
// and hands results to deliver in strict chunk order (a bounded
// reorder buffer smooths out scheduling skew). The first error cancels
// everything.
func runChunks[T any](ctx context.Context, data []byte, conc int,
	fn func(context.Context, *trace.Chunk) (T, error),
	deliver func(int, T) error) (int, error) {

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type item struct {
		idx int
		c   *trace.Chunk
	}
	type res struct {
		idx int
		v   T
		err error
	}
	work := make(chan item, conc)
	results := make(chan res, conc)
	readErr := make(chan error, 1)

	go func() {
		defer close(work)
		cr, err := trace.NewChunkReader(bytes.NewReader(data))
		if err != nil {
			readErr <- err
			return
		}
		for idx := 0; ; idx++ {
			c, err := cr.Next()
			if err == io.EOF {
				readErr <- nil
				return
			}
			if err != nil {
				readErr <- err
				return
			}
			select {
			case work <- item{idx, c}:
			case <-ctx.Done():
				readErr <- ctx.Err()
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				v, err := fn(ctx, it.c)
				select {
				case results <- res{it.idx, v, err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]T, conc)
	next := 0
	var firstErr error
	for r := range results {
		if firstErr != nil {
			continue
		}
		if r.err != nil {
			firstErr = fmt.Errorf("chunk %d: %w", r.idx, r.err)
			cancel()
			continue
		}
		pending[r.idx] = r.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := deliver(next, v); err != nil {
				firstErr = err
				cancel()
				break
			}
			next++
		}
	}
	if err := <-readErr; err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return next, firstErr
	}
	return next, nil
}

// ---- chunk worker endpoint ----

// chunkJobHeader frames a POST /v1/analyses/chunks request: a u32
// little-endian header length, this JSON header, then the standalone
// chunk bytes (trace.EncodeChunk). The response is the Stats JSON or
// the binary Partial, by phase.
type chunkJobHeader struct {
	Phase string           `json:"phase"` // "stats" or "partial"
	Plan  *dirtbuster.Plan `json:"plan,omitempty"`
}

// handleAnalyzeChunk serves one synchronous chunk-analysis call — the
// primitive a coordinator fans out across shards. Calls are bounded by
// a semaphore sized to the worker pool so a burst cannot starve the
// job workers.
func (s *Server) handleAnalyzeChunk(w http.ResponseWriter, r *http.Request) {
	select {
	case s.chunkSem <- struct{}{}:
		defer func() { <-s.chunkSem }()
	case <-r.Context().Done():
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadPart+1))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxUploadPart {
		WriteError(w, http.StatusRequestEntityTooLarge, "chunk request exceeds %d bytes", maxUploadPart)
		return
	}
	if len(body) < 4 {
		WriteError(w, http.StatusBadRequest, "truncated chunk request")
		return
	}
	hdrLen := binary.LittleEndian.Uint32(body)
	if int(hdrLen) > len(body)-4 {
		WriteError(w, http.StatusBadRequest, "chunk request header length %d exceeds body", hdrLen)
		return
	}
	var hdr chunkJobHeader
	if err := json.Unmarshal(body[4:4+hdrLen], &hdr); err != nil {
		WriteError(w, http.StatusBadRequest, "bad chunk request header: %v", err)
		return
	}
	c, err := trace.DecodeChunk(bytes.NewReader(body[4+hdrLen:]))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad chunk payload: %v", err)
		return
	}
	s.m.traceChunks.Inc()
	// A coordinator fanning out carries its analysis job's trace in the
	// traceparent header; the shard-side chunk work becomes a span in
	// that same trace, on this shard's store.
	ctx := r.Context()
	if sc, ok := obs.Extract(r.Header); ok {
		var sp *obs.ActiveSpan
		ctx = obs.ContextWithSpan(obs.ContextWithTracer(ctx, s.tracer), sc)
		ctx, sp = obs.Start(ctx, "analysis.chunk.remote", obs.KV("phase", hdr.Phase))
		defer sp.End()
	}
	switch hdr.Phase {
	case "stats":
		st, err := localAnalyzer{}.Stats(ctx, c)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	case "partial":
		if hdr.Plan == nil {
			WriteError(w, http.StatusBadRequest, "partial phase needs a plan")
			return
		}
		pt, err := localAnalyzer{}.Partial(ctx, hdr.Plan, c)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		var buf bytes.Buffer
		if err := pt.Encode(&buf); err != nil {
			WriteError(w, http.StatusInternalServerError, "encoding partial: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(buf.Bytes())
	default:
		WriteError(w, http.StatusBadRequest, "unknown chunk phase %q (want stats or partial)", hdr.Phase)
	}
}

// EncodeChunkRequest frames a chunk-analysis request body for
// POST /v1/analyses/chunks; the cluster coordinator and tests share it.
func EncodeChunkRequest(hdr chunkJobHeader, c *trace.Chunk) ([]byte, error) {
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(hj)))
	buf.Write(l[:])
	buf.Write(hj)
	if err := trace.EncodeChunk(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// StatsChunkRequest frames a pass-1 request for one chunk.
func StatsChunkRequest(c *trace.Chunk) ([]byte, error) {
	return EncodeChunkRequest(chunkJobHeader{Phase: "stats"}, c)
}

// PartialChunkRequest frames a pass-2 request for one chunk.
func PartialChunkRequest(plan *dirtbuster.Plan, c *trace.Chunk) ([]byte, error) {
	return EncodeChunkRequest(chunkJobHeader{Phase: "partial", Plan: plan}, c)
}
