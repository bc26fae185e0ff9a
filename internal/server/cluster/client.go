package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"prestores/internal/obs"
	"prestores/internal/server"
)

// Client is the HTTP client for the prestored surface, shared by the
// coordinator (towards its shards), prestore-bench and prestore-trace
// (towards a daemon or a coordinator, which speak the same surface).
// One-shot requests run on a timed client — a hung server must fail a
// call, not hang the caller — and job streams on an untimed one, whose
// legitimate lifetime is the job's. Every request carries the
// context's span as a traceparent header, so the server's work joins
// the caller's trace. The Backoff paces 429 retries and stream
// reconnects.
type Client struct {
	api     *http.Client
	stream  *http.Client
	backoff Backoff
}

// NewClient builds a Client. timeout bounds each one-shot request
// (<= 0 means 30 s); a nil transport means http.DefaultTransport.
func NewClient(timeout time.Duration, bo Backoff, transport http.RoundTripper) *Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Client{
		api:     &http.Client{Timeout: timeout, Transport: transport},
		stream:  &http.Client{Transport: transport},
		backoff: bo,
	}
}

// Response is an answered one-shot request: any HTTP status, 4xx and
// 5xx included, with its raw body.
type Response struct {
	Code int
	Body []byte
}

// Job decodes the job status a 200 or 202 answer carries; nil for any
// other answer.
func (r *Response) Job() *server.JobStatus {
	if r.Code != http.StatusOK && r.Code != http.StatusAccepted {
		return nil
	}
	var st server.JobStatus
	if json.Unmarshal(r.Body, &st) != nil {
		return nil
	}
	return &st
}

// Err is nil for a 2xx answer and a *StatusError otherwise.
func (r *Response) Err() error {
	if r.Code >= 200 && r.Code < 300 {
		return nil
	}
	return &StatusError{Code: r.Code, Body: string(bytes.TrimSpace(r.Body))}
}

// StatusError is an answer with a non-success status code.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d %s: %s", e.Code, http.StatusText(e.Code), e.Body)
}

// maxResponse bounds a buffered answer; it is sized for a pass-2
// partial of a dense trace chunk.
const maxResponse = 1 << 26

// Do sends one timed request; body may be nil. A returned error means
// the server did not answer at all (connect failure, timeout) — the
// signal the coordinator treats as "shard down".
func (c *Client) Do(ctx context.Context, method, url, contentType string, body []byte) (*Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	obs.InjectContext(ctx, req.Header)
	resp, err := c.api.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		return nil, err
	}
	return &Response{Code: resp.StatusCode, Body: data}, nil
}

// Get is Do for a GET.
func (c *Client) Get(ctx context.Context, url string) (*Response, error) {
	return c.Do(ctx, "GET", url, "", nil)
}

// Cancel DELETEs job id on base.
func (c *Client) Cancel(ctx context.Context, base, id string) (*Response, error) {
	return c.Do(ctx, "DELETE", base+"/v1/jobs/"+id, "", nil)
}

// ErrQueueFull is returned by Submit when its retry budget ran out
// while the server kept answering 429.
var ErrQueueFull = errors.New("queue stayed full")

// Submit POSTs body to a submit endpoint, absorbing 429 (queue full)
// answers with the client's Backoff: queued jobs drain, so a retry
// usually lands. ctx is the total retry budget — its deadline or
// cancellation ends the loop mid-pause. Any other answer is returned
// as is.
func (c *Client) Submit(ctx context.Context, url, contentType string, body []byte) (*Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.Do(ctx, "POST", url, contentType, body)
		if err != nil || resp.Code != http.StatusTooManyRequests {
			return resp, err
		}
		if err := c.backoff.Sleep(ctx, attempt); err != nil {
			return nil, fmt.Errorf("%w through %d attempts: %w", ErrQueueFull, attempt+1, err)
		}
	}
}

// SubmitJob submits a JSON job body through Submit and returns the job
// handle; any answer other than 200 or 202 is an error.
func (c *Client) SubmitJob(ctx context.Context, url string, body []byte) (*server.JobStatus, error) {
	resp, err := c.Submit(ctx, url, "application/json", body)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	if st := resp.Job(); st != nil {
		return st, nil
	}
	return nil, fmt.Errorf("bad job handle: %s", resp.Body)
}

// Healthy probes base's /healthz under its own short deadline.
func (c *Client) Healthy(ctx context.Context, base string, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := c.Get(ctx, base+"/healthz")
	return err == nil && resp.Code == http.StatusOK
}

// Spans fetches a job's server-side spans and their dropped count from
// GET /v1/jobs/{id}/spans.
func (c *Client) Spans(ctx context.Context, base, id string) ([]obs.Span, int, error) {
	resp, err := c.Get(ctx, base+"/v1/jobs/"+id+"/spans")
	if err != nil {
		return nil, 0, err
	}
	if err := resp.Err(); err != nil {
		return nil, 0, err
	}
	var tl struct {
		OtherData struct {
			Dropped int `json:"droppedSpans"`
		} `json:"otherData"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(resp.Body, &tl); err != nil {
		return nil, 0, err
	}
	return tl.Spans, tl.OtherData.Dropped, nil
}

// Stream is an attached NDJSON job stream.
type Stream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

func newStream(body io.ReadCloser) *Stream {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	return &Stream{body: body, sc: sc}
}

// Next returns the next event; io.EOF when the stream ended cleanly.
func (s *Stream) Next() (*server.StreamEvent, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	var ev server.StreamEvent
	if err := json.Unmarshal(s.sc.Bytes(), &ev); err != nil {
		return nil, fmt.Errorf("bad stream line: %v", err)
	}
	return &ev, nil
}

// Close ends the stream.
func (s *Stream) Close() error { return s.body.Close() }

// Attach opens job id's stream on base, replaying from byte offset of
// the job's output. A non-200 answer is a *StatusError, so a caller can
// tell "job unknown here" (404: a restarted worker lost its jobs) from
// transport loss.
func (c *Client) Attach(ctx context.Context, base, id string, offset int) (*Stream, error) {
	url := base + "/v1/jobs/" + id + "/stream"
	if offset > 0 {
		url += "?offset=" + strconv.Itoa(offset)
	}
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	obs.InjectContext(ctx, req.Header)
	resp, err := c.stream.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	return newStream(resp.Body), nil
}

// MaxStreamReconnects bounds Follow's consecutive fruitless reconnect
// attempts; an attempt that delivers new output bytes resets the budget.
const MaxStreamReconnects = 5

// Follow follows job id's stream on base to its done event, copying
// output to w as it arrives, and returns the final status. A mid-job
// disconnect is not fatal: Follow tracks the bytes consumed and
// reattaches with ?offset=N, so the server replays only what is
// missing and no output byte is written twice. A definitive answer —
// an HTTP error status, a failed local write, cancellation — is not
// retried.
func (c *Client) Follow(ctx context.Context, base, id string, w io.Writer) (*server.JobStatus, error) {
	consumed, attempts := 0, 0
	for {
		before := consumed
		st, retry, err := c.followOnce(ctx, base, id, w, &consumed)
		if !retry {
			return st, err
		}
		if consumed > before {
			attempts = 0 // the connection was productive; fresh budget
		}
		if attempts >= MaxStreamReconnects {
			return nil, fmt.Errorf("stream broken after %d reconnect attempts: %w", attempts, err)
		}
		if serr := c.backoff.Sleep(ctx, attempts); serr != nil {
			return nil, serr
		}
		attempts++
	}
}

// followOnce attaches at the consumed offset and copies until the done
// event. retry reports a transport loss worth reconnecting through.
func (c *Client) followOnce(ctx context.Context, base, id string, w io.Writer, consumed *int) (st *server.JobStatus, retry bool, err error) {
	s, err := c.Attach(ctx, base, id, *consumed)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		var se *StatusError
		return nil, !errors.As(err, &se), err
	}
	defer s.Close()
	for {
		ev, err := s.Next()
		if err != nil {
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			if err == io.EOF {
				err = errors.New("stream ended without a done event")
			}
			return nil, true, err
		}
		switch ev.Event {
		case "output":
			if _, err := io.WriteString(w, ev.Data); err != nil {
				return nil, false, err
			}
			*consumed += len(ev.Data)
		case "done":
			if ev.Job == nil {
				return nil, false, errors.New("done event without a job status")
			}
			return ev.Job, false, nil
		}
	}
}
