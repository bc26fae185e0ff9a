package server

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"prestores/internal/bench"
	"prestores/internal/checkpoint"
	"prestores/internal/obs"
)

// jobState is a job's position in its lifecycle.
type jobState int

const (
	stateQueued jobState = iota
	stateRunning
	stateDone
	stateFailed
	stateCancelled
)

func (s jobState) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	case stateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("jobState(%d)", int(s))
}

// work is what a job runs: the Result's id and title, and a body that
// writes the job's human-readable output to w. The worker runs the body
// under bench.RunGuarded, which streams w into the job's progress log
// as it is written. The body receives the job so it can attach
// artifacts (setArtifact) such as recorded telemetry.
type work struct {
	id, title string
	body      func(ctx context.Context, j *job, w io.Writer) error
}

// job is one unit of work on the scheduler: an experiment run, a
// DirtBuster analysis or a trace analysis. Its context is the
// cancellation channel — DELETE, a last-watcher disconnect and a
// shutdown deadline all cancel it, and the work underneath observes it
// at sweep-iteration boundaries (bench.Run) or between pipeline stages.
type job struct {
	id   string
	kind string
	key  string
	work work

	ctx       context.Context
	cancel    context.CancelFunc
	out       *progressLog
	done      chan struct{} // closed when the job reaches a final state
	submitted time.Time
	// sc is the job's root span context: minted at submit, continued
	// from the request's traceparent header when one was sent (so the
	// trace ID is the caller's), closed at finalize. parent is the
	// caller's span the root nests under (zero when this daemon is the
	// trace root).
	sc     obs.SpanContext
	parent obs.SpanID
	// ckpt is the job's view of the shared warm-state checkpoint store,
	// set by the worker before run starts and read by finalize for the
	// lifecycle log; nil when checkpointing is disabled or the job was
	// abandoned before a worker picked it up.
	ckpt *checkpoint.View

	mu        sync.Mutex
	state     jobState
	result    *bench.Result
	detached  bool // an async submit owns it: run to completion even with no watchers
	watchers  int  // active stream connections
	artifacts map[string][]byte
}

// logCtx is a context carrying only the job's span identifiers, for
// stamping lifecycle log lines with trace_id/span_id (the job's own
// ctx is cancelled by then, and slog only reads values, never deadlines).
func (j *job) logCtx() context.Context {
	return obs.ContextWithSpan(context.Background(), j.sc)
}

// setArtifact attaches a named byte artifact (e.g. a recorded timeline)
// to the job, retrievable over GET /v1/jobs/{id}/{name} while the job
// is retained.
func (j *job) setArtifact(name string, data []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.artifacts == nil {
		j.artifacts = map[string][]byte{}
	}
	j.artifacts[name] = data
}

// artifact returns a named artifact.
func (j *job) artifact(name string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.artifacts[name]
	return data, ok
}

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Key   string `json:"key"`
	State string `json:"state"`
	// Cached marks a submit answered from the result cache without
	// running anything; Coalesced marks a submit attached to an
	// identical in-flight job.
	Cached    bool          `json:"cached,omitempty"`
	Coalesced bool          `json:"coalesced,omitempty"`
	Error     string        `json:"error,omitempty"`
	Result    *bench.Result `json:"result,omitempty"`
	// Trace is the job's trace ID: the cross-link between the job
	// handle and GET /v1/jobs/{id}/spans, and what a client needs to
	// merge the daemon's spans with its own.
	Trace string `json:"trace_id,omitempty"`
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: j.state.String(),
		Trace: j.sc.Trace.String()}
	if j.result != nil {
		st.Result = j.result
		st.Error = j.result.Err
	}
	return st
}

// trySetRunning moves queued → running; it fails if the job was
// cancelled while waiting in the queue.
func (j *job) trySetRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateQueued {
		return false
	}
	j.state = stateRunning
	return true
}

// finished reports whether the job reached a final state.
func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == stateDone || j.state == stateFailed || j.state == stateCancelled
}

// progressLog is a job's output stream: an append-only buffer that
// wakes streaming readers on every write and is closed exactly once
// when the job finishes. Readers follow it with next.
type progressLog struct {
	mu     sync.Mutex
	buf    []byte
	closed bool
	wake   chan struct{}
}

func newProgressLog() *progressLog {
	return &progressLog{wake: make(chan struct{})}
}

func (l *progressLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.closed {
		close(l.wake)
		l.wake = make(chan struct{})
	}
	return len(p), nil
}

// close marks the log complete and releases any waiting readers.
func (l *progressLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.wake)
	}
}

// next returns the bytes appended since off, the new offset, whether
// the log is complete, and — when there is nothing new yet — a channel
// that is closed on the next write (or on close).
func (l *progressLog) next(off int) (chunk []byte, noff int, done bool, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off < len(l.buf) {
		chunk = append([]byte(nil), l.buf[off:]...)
		return chunk, len(l.buf), l.closed, nil
	}
	return nil, off, l.closed, l.wake
}
