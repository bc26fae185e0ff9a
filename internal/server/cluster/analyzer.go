package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"prestores/internal/dirtbuster"
	"prestores/internal/server"
	"prestores/internal/trace"
)

// clusterAnalyzer is the chunk-analysis backend the coordinator injects
// into its embedded host: each per-chunk map step of a trace analysis
// becomes a POST /v1/analyses/chunks against a worker shard, picked by
// consistent hashing of the chunk's content-address. Identical chunks
// always land on the same shard, a shard answering 429 is retried with
// the shared backoff schedule, and a shard that dies mid-analysis is
// demoted while its chunk moves to the next ring position. Both phases
// are pure functions of the chunk (plus the plan), and the embedded
// host still reduces partials in chunk order — so the sharded report
// stays byte-identical to the monolithic one no matter which shards
// did the work or in what order they answered.
type clusterAnalyzer struct {
	c *Coordinator
}

func (a clusterAnalyzer) Concurrency() int {
	n := 2 * len(a.c.cfg.Shards)
	if n > 8 {
		n = 8
	}
	if n < 2 {
		n = 2
	}
	return n
}

// chunkAddress content-addresses one chunk for ring placement.
func chunkAddress(c *trace.Chunk) (string, error) {
	var buf bytes.Buffer
	if err := trace.EncodeChunk(&buf, c); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func (a clusterAnalyzer) Stats(ctx context.Context, ch *trace.Chunk) (*dirtbuster.Stats, error) {
	body, err := server.StatsChunkRequest(ch)
	if err != nil {
		return nil, err
	}
	resp, err := a.dispatch(ctx, ch, body)
	if err != nil {
		return nil, err
	}
	var st dirtbuster.Stats
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, fmt.Errorf("chunk %d: bad stats payload: %v", ch.Index, err)
	}
	return &st, nil
}

func (a clusterAnalyzer) Partial(ctx context.Context, plan *dirtbuster.Plan, ch *trace.Chunk) (*dirtbuster.Partial, error) {
	body, err := server.PartialChunkRequest(plan, ch)
	if err != nil {
		return nil, err
	}
	resp, err := a.dispatch(ctx, ch, body)
	if err != nil {
		return nil, err
	}
	pt, err := dirtbuster.DecodePartial(bytes.NewReader(resp))
	if err != nil {
		return nil, fmt.Errorf("chunk %d: bad partial payload: %v", ch.Index, err)
	}
	return pt, nil
}

// dispatch walks the chunk's ring preference order over healthy shards
// until one answers the framed request. Transport failures demote the
// shard and move the chunk to the next ring position; 429s are
// absorbed with backoff; any other application-level rejection is
// final (a shard that calls the request malformed will not change its
// mind elsewhere).
func (a clusterAnalyzer) dispatch(ctx context.Context, ch *trace.Chunk, body []byte) ([]byte, error) {
	c := a.c
	addr, err := chunkAddress(ch)
	if err != nil {
		return nil, err
	}
	tried := 0
	var lastErr error
	for _, shard := range c.ring.Sequence(addr) {
		if !c.prober.healthy(shard) {
			continue
		}
		tried++
		data, err := a.tryShard(ctx, shard, body)
		if err == nil {
			c.m.chunks.Inc(c.cfg.Shards[shard])
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var fe *chunkFinalError
		if errors.As(err, &fe) {
			return nil, err
		}
		c.m.chunkRetries.Inc(c.cfg.Shards[shard])
		lastErr = err
	}
	if tried == 0 {
		return nil, fmt.Errorf("chunk %d: %w (of %d)", ch.Index, errNoHealthyShard, len(c.cfg.Shards))
	}
	return nil, fmt.Errorf("chunk %d: every healthy shard failed: %v", ch.Index, lastErr)
}

// chunkFinalError marks a shard answer that retrying elsewhere cannot
// improve.
type chunkFinalError struct{ msg string }

func (e *chunkFinalError) Error() string { return e.msg }

// tryShard runs the request against one shard, absorbing its 429s.
func (a clusterAnalyzer) tryShard(ctx context.Context, shard int, body []byte) ([]byte, error) {
	c := a.c
	url := c.cfg.Shards[shard]
	resp, err := c.submitRetrying(ctx, url+"/v1/analyses/chunks", "application/octet-stream", body)
	switch {
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case errors.Is(err, ErrQueueFull):
		return nil, fmt.Errorf("shard %s: %w", url, err)
	case err != nil:
		c.shardFailed(shard, "chunk", err)
		return nil, err
	case resp.Code != http.StatusOK:
		return nil, &chunkFinalError{msg: fmt.Sprintf("shard %s rejected chunk: %d %s",
			url, resp.Code, bytes.TrimSpace(resp.Body))}
	}
	return resp.Body, nil
}
