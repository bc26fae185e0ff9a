package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"prestores/internal/sim"
)

// Result records one experiment execution under the runner: what ran,
// how long it took on the wall clock, everything it printed, and the
// failure (panic, timeout or cancellation) if it did not complete.
// Results are what the -json emitter and the prestored daemon
// serialize, so benchmark trajectories can be diffed across revisions.
type Result struct {
	ID       string        `json:"id"`
	Title    string        `json:"title"`
	WallTime time.Duration `json:"wall_time_ns"`
	// SimOps is the number of simulated operations this experiment's own
	// machines retired, and SimOpsPerSec divides it by the wall time:
	// the simulator's host-side throughput. Each run carries a private
	// sim.OpsCounter on its context and every machine an experiment
	// constructs attaches to it, so per-experiment figures are exact
	// under any -parallel setting — concurrent experiments never inflate
	// each other's counts.
	SimOps       uint64  `json:"sim_ops"`
	SimOpsPerSec float64 `json:"sim_ops_per_sec"`
	Output       string  `json:"output"`
	Err          string  `json:"err,omitempty"`
}

// Failed reports whether the experiment did not complete normally.
func (r *Result) Failed() bool { return r.Err != "" }

// RunnerConfig tunes the experiment runner.
type RunnerConfig struct {
	// Parallel is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	// Experiments are independent — each constructs its own private
	// sim.Machine — so they scale across cores. 1 reproduces the serial
	// runner exactly.
	Parallel int
	// Quick shrinks sweeps for smoke tests.
	Quick bool
	// Timeout bounds each experiment's wall-clock time; 0 disables. The
	// deadline cancels the experiment's context; experiments observe it
	// at sweep-iteration boundaries, return, and free their worker for
	// the next experiment. An experiment that ignores its context keeps
	// its worker until it finishes on its own.
	Timeout time.Duration
}

// Run executes exps on a worker pool and returns one Result per
// experiment, in input order. Each experiment writes into a private
// buffer; buffers are flushed to w in input order as soon as their turn
// completes, so the streamed output is byte-identical to running the
// same experiments serially with RunOne — regardless of Parallel.
//
// A panicking experiment is contained: it yields a Result with Err set
// (and an error line on w) instead of killing the sweep. Cancelling ctx
// stops in-flight experiments at their next sweep-iteration boundary
// and fails the not-yet-flushed ones with a cancellation error.
//
// The returned error is the first write error w reported, if any (the
// sink hung up — remaining experiments are cancelled rather than
// simulated for nobody), else ctx's error if it was cancelled, else
// nil. Even on error the returned slice always has len(exps) entries.
func Run(ctx context.Context, w io.Writer, exps []Experiment, cfg RunnerConfig) ([]Result, error) {
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(exps))
	jobs := make(chan int)
	completed := make(chan int, len(exps))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				e := exps[idx]
				results[idx], _ = RunGuarded(runCtx, nil, e.ID, e.Title, cfg.Timeout,
					func(ctx context.Context, w io.Writer) error { return RunOne(ctx, w, e, cfg.Quick) })
				completed <- idx
			}
		}()
	}
	go func() {
		for i := range exps {
			jobs <- i
		}
		close(jobs)
	}()

	// Flush in deterministic input order: a finished experiment waits
	// until every earlier one has been flushed.
	var writeErr error
	done := make([]bool, len(exps))
	next := 0
	for range exps {
		i := <-completed
		done[i] = true
		for next < len(exps) && done[next] {
			if writeErr == nil {
				if err := flushResult(w, &results[next]); err != nil {
					// The sink hung up mid-stream: stop the remaining
					// experiments instead of simulating for nobody.
					writeErr = err
					cancel()
				}
			}
			next++
		}
	}
	wg.Wait()
	if writeErr != nil {
		return results, writeErr
	}
	return results, ctx.Err()
}

// flushResult writes one experiment's captured output, appending an
// error trailer for failed runs, and reports the first write error.
func flushResult(w io.Writer, r *Result) error {
	if _, err := io.WriteString(w, r.Output); err != nil {
		return err
	}
	if r.Failed() {
		if _, err := fmt.Fprintf(w, "!!! %s failed: %s\n", r.ID, r.Err); err != nil {
			return err
		}
	}
	return nil
}

// RunGuarded is the one harness every experiment run and every daemon
// job goes through. It applies timeout (0 disables), puts a private
// sim.OpsCounter on the context so SimOps counts exactly the machines
// this run attaches, and runs body on the calling goroutine with its
// output teed to sink (which may be nil) as it is written. A panic in
// body becomes the Result's Err; so does body's error, and when body
// returns cleanly but its context is done, a timeout or cancellation
// label. Cancellation is cooperative: body observes ctx at its own
// iteration boundaries and returns, so a timed-out run frees its
// worker instead of being abandoned to burn CPU in the background.
//
// The Result always captures the complete output; the returned error
// is the first write error sink reported, if any.
func RunGuarded(ctx context.Context, sink io.Writer, id, title string, timeout time.Duration,
	body func(ctx context.Context, w io.Writer) error) (Result, error) {
	rctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var ops sim.OpsCounter
	rctx = sim.WithOpsSink(rctx, &ops)
	t := &teeWriter{sink: sink}
	start := time.Now()
	errText := func() (errText string) {
		defer func() {
			if r := recover(); r != nil {
				errText = fmt.Sprintf("panic: %v", r)
			}
		}()
		if err := body(rctx, t); err != nil {
			return err.Error()
		}
		return ""
	}()

	res := Result{ID: id, Title: title, Err: errText}
	res.WallTime = time.Since(start)
	res.SimOps = ops.Total()
	if s := res.WallTime.Seconds(); s > 0 {
		res.SimOpsPerSec = float64(res.SimOps) / s
	}
	res.Output = t.buf.String()
	if res.Err == "" {
		switch err := rctx.Err(); {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			res.Err = fmt.Sprintf("timeout after %s", timeout)
		default:
			res.Err = fmt.Sprintf("cancelled: %v", err)
		}
	}
	return res, t.err
}

// teeWriter captures all output in buf and forwards it to sink
// best-effort, latching sink's first error without disturbing the
// capture (the Result must stay complete even when the sink dies).
type teeWriter struct {
	buf  bytes.Buffer
	sink io.Writer
	err  error
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	if t.sink != nil && t.err == nil {
		if _, err := t.sink.Write(p); err != nil {
			t.err = err
		}
	}
	return len(p), nil
}

// WriteJSON writes results as an indented JSON array — one well-formed
// record per experiment — suitable for BENCH_*.json trajectory files.
func WriteJSON(w io.Writer, results []Result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
