package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"prestores/internal/bench"
	"prestores/internal/obs"
	"prestores/internal/server/cluster"
)

// newRemoteClient is the shared service client with the CLI's pacing:
// a 30 s bound on one-shot calls, and a backoff under which a fleet of
// clients facing one full queue spreads out instead of thundering in
// lockstep. A cluster coordinator speaks the daemon's surface, so the
// client is unaware whether it is talking to one daemon or a fleet.
func newRemoteClient() *cluster.Client {
	return cluster.NewClient(30*time.Second, cluster.Backoff{Base: 100 * time.Millisecond, Cap: 10 * time.Second}, nil)
}

// handle tracks one submitted experiment: the job ID to follow, or the
// already-final result when the submit was answered from the cache.
// ctx carries the submission's client span (when -spans is on) so
// stream reconnects keep propagating the same trace; root is that
// span, closed when the job's output has been fully collected.
type handle struct {
	id   string
	res  *bench.Result
	ctx  context.Context
	root *obs.ActiveSpan
}

// runRemote executes the sweep on a prestored daemon (or a cluster
// coordinator fronting a fleet of them). All experiments are submitted
// up front — the daemon runs them on its worker pool and answers
// repeats from its result cache — then outputs are printed in input
// order, streaming the job whose turn it is. The bytes written to w
// are identical to a local bench.Run over the same experiments.
func runRemote(ctx context.Context, w io.Writer, base string, exps []bench.Experiment, quick bool, spans *spanCollector) ([]bench.Result, error) {
	base = strings.TrimRight(base, "/")
	rc := newRemoteClient()
	results := make([]bench.Result, 0, len(exps))

	handles := make([]handle, len(exps))
	for i, e := range exps {
		sctx, root := spans.begin(ctx, e.ID)
		subCtx, sub := obs.Start(sctx, "submit")
		body, _ := json.Marshal(map[string]any{"id": e.ID, "quick": quick}) // a string and a bool: cannot fail
		st, err := rc.SubmitJob(subCtx, base+"/v1/experiments", body)
		sub.End()
		if err != nil {
			root.End()
			cancelRemote(rc, base, handles)
			return results, fmt.Errorf("submitting %s: %w", e.ID, err)
		}
		if st.Cached {
			root.SetAttr("cached", "true")
			root.End()
			handles[i] = handle{res: st.Result}
		} else {
			handles[i] = handle{id: st.ID, ctx: sctx, root: root}
		}
	}

	for i, h := range handles {
		res := h.res
		if res == nil {
			strCtx, str := obs.Start(h.ctx, "stream", obs.KV("job", h.id))
			r, err := follow(strCtx, rc, w, base, h.id)
			str.End()
			h.root.End()
			if err != nil {
				cancelRemote(rc, base, handles[i:])
				return results, fmt.Errorf("streaming %s (%s): %w", exps[i].ID, h.id, err)
			}
			res = r
			// The job is terminal: its server-side spans are complete
			// and safe to merge into the artifact.
			spans.fetch(ctx, rc, base, h.id)
			// The stream already carried the output bytes; only the
			// failure trailer is local (it matches bench.Run's).
		} else if _, err := io.WriteString(w, res.Output); err != nil {
			cancelRemote(rc, base, handles[i:])
			return results, err
		}
		if res.Failed() {
			fmt.Fprintf(w, "!!! %s failed: %s\n", res.ID, res.Err)
		}
		results = append(results, *res)
	}
	return results, nil
}

// follow streams a job's output to w (resuming after disconnects) and
// returns its result.
func follow(ctx context.Context, rc *cluster.Client, w io.Writer, base, id string) (*bench.Result, error) {
	st, err := rc.Follow(ctx, base, id, w)
	if err != nil {
		return nil, err
	}
	if st.Result == nil {
		return nil, fmt.Errorf("done event without result")
	}
	return st.Result, nil
}

// runJob submits one job and writes its output to w — streamed as it
// is produced, or the cached result's — and returns the job's ID and
// result. A job whose stream fails is cancelled.
func runJob(ctx context.Context, rc *cluster.Client, w io.Writer, base, path string, body []byte) (string, *bench.Result, error) {
	st, err := rc.SubmitJob(ctx, base+path, body)
	if err != nil {
		return "", nil, err
	}
	if st.Result != nil {
		_, err := io.WriteString(w, st.Result.Output)
		return st.ID, st.Result, err
	}
	res, err := follow(ctx, rc, w, base, st.ID)
	if err != nil {
		cancelRemote(rc, base, []handle{{id: st.ID}})
	}
	return st.ID, res, err
}

// cancelRemote best-effort cancels jobs the client will no longer
// collect, so an aborted sweep does not leave the daemon simulating
// for nobody. Detached jobs need the explicit DELETE. The DELETEs run
// concurrently, each under its own short deadline: aborting a wide
// sweep must take one round-trip, not one per outstanding job.
func cancelRemote(rc *cluster.Client, base string, handles []handle) {
	var wg sync.WaitGroup
	for _, h := range handles {
		if h.id == "" {
			continue
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			rc.Cancel(ctx, base, id)
		}(h.id)
	}
	wg.Wait()
}
