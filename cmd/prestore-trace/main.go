// Command prestore-trace records a workload's full operation trace to a
// file and analyzes recordings offline — DirtBuster's intended usage as
// an optimization pass decoupled from the profiled run (paper §6.1).
//
// Recording streams chunks to disk as the workload runs (v2 chunked
// format), so peak memory stays flat no matter how long the trace is;
// every analysis streams the chunks back with bounded memory.
// Recordings can also be shipped to a prestored daemon (or cluster
// coordinator) for remote sharded analysis.
//
// Usage:
//
//	prestore-trace -record tf.trace -workload tensorflow
//	prestore-trace -analyze tf.trace -line 64
//	prestore-trace -analyze tf.trace -pmcheck -pmbase 0x10000000000
//	prestore-trace -upload tf.trace -server http://localhost:8344
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"prestores/internal/bench"
	"prestores/internal/dirtbuster"
	"prestores/internal/obs"
	"prestores/internal/pmcheck"
	"prestores/internal/server"
	"prestores/internal/server/cluster"
	"prestores/internal/trace"
)

func main() {
	record := flag.String("record", "", "record the workload's trace to this file")
	analyze := flag.String("analyze", "", "analyze a recorded trace file")
	upload := flag.String("upload", "", "upload a recorded trace to -server and analyze it there")
	serverURL := flag.String("server", "", "prestored daemon or coordinator base URL for -upload")
	workload := flag.String("workload", "", "workload to record (see prestore-trace -list)")
	list := flag.Bool("list", false, "list recordable workloads")
	quick := flag.Bool("quick", true, "use smoke-sized workloads (full-size traces are huge)")
	chunk := flag.Int("chunk", trace.DefaultChunkRecords, "records per chunk when recording")
	name := flag.String("name", "trace", "application name for the analysis report")
	lineSize := flag.Uint64("line", 64, "cache line size of the recorded machine")
	report := flag.Bool("report", false, "print a perf-report-style per-function time profile")
	pmCheck := flag.Bool("pmcheck", false, "run the persistence checker instead of DirtBuster")
	pmBase := flag.Uint64("pmbase", 1<<40, "persistent range base for -pmcheck")
	pmSize := flag.Uint64("pmsize", 256<<30, "persistent range size for -pmcheck")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "prestore-trace")
		return
	}

	switch {
	case *list:
		for _, w := range bench.Table2Workloads(*quick) {
			fmt.Println(w.Name)
		}
	case *record != "" && *workload != "":
		doRecord(*record, *workload, *quick, *chunk)
	case *analyze != "":
		// Every analysis streams the recording's chunks: the
		// DirtBuster report in two bounded-memory passes, the time
		// profile and the persistence check in one.
		f, err := os.Open(*analyze)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		switch {
		case *report:
			fts, err := trace.TimeByFunction(f)
			if err != nil {
				fatal(err)
			}
			fmt.Print(fts.Render())
		case *pmCheck:
			res, err := pmcheck.Check(f, pmcheck.Config{Base: *pmBase, Size: *pmSize, LineSize: *lineSize})
			if err != nil {
				fatal(err)
			}
			fmt.Print(res.Render())
			if !res.Ok() {
				os.Exit(1)
			}
		default:
			rep, err := dirtbuster.AnalyzeChunkSource(*name, dirtbuster.SeekSource(f), *lineSize, dirtbuster.Config{})
			if err != nil {
				fatal(err)
			}
			fmt.Println(rep.Render())
		}
	case *upload != "" && *serverURL != "":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		c := cluster.NewClient(30*time.Second, cluster.Backoff{Base: 100 * time.Millisecond, Cap: 10 * time.Second}, nil)
		report, err := uploadAndAnalyze(ctx, c, *serverURL, *upload, *name, *lineSize, os.Stderr)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// doRecord streams the workload's trace to the file chunk by chunk:
// the writer's buffer holds at most one chunk of records, so peak RSS
// is flat in trace length.
func doRecord(path, workload string, quick bool, chunkRecords int) {
	for _, w := range bench.Table2Workloads(quick) {
		if w.Name != workload {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		tw := trace.NewWriter(f, trace.WriterOptions{ChunkRecords: chunkRecords})
		line := dirtbuster.RecordStream(w, tw.Hook())
		if err := tw.Close(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d ops of %q (line size %dB) to %s in %d chunks\n",
			tw.Records(), w.Name, line, path, tw.Chunks())
		return
	}
	fmt.Fprintf(os.Stderr, "unknown workload %q; try -list\n", workload)
	os.Exit(2)
}

const uploadPart = 4 << 20

// uploadAndAnalyze ships a recording to a prestored daemon (or cluster
// coordinator) with the resumable upload protocol, submits a chunked
// analysis of it, follows the job's stream to the end and returns the
// report. Offset mismatches (409) resume from the server's offset, so
// a retried or interrupted upload never re-sends bytes the server
// already has; a full queue (429) is waited out.
func uploadAndAnalyze(ctx context.Context, c *cluster.Client, base, path, app string, lineSize uint64, log io.Writer) (string, error) {
	base = strings.TrimRight(base, "/")
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()

	var up server.UploadStatus
	if err := post(ctx, c, base+"/v1/traces?resume=1", &up); err != nil {
		return "", err
	}
	off := up.Offset
	buf := make([]byte, uploadPart)
	for {
		n, err := f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			return "", err
		}
		if n == 0 {
			break
		}
		if off, err = putPart(ctx, c, base, up.Upload, off, buf[:n]); err != nil {
			return "", err
		}
	}
	var info server.TraceInfo
	if err := post(ctx, c, base+"/v1/traces/uploads/"+up.Upload+"/commit", &info); err != nil {
		return "", err
	}
	fmt.Fprintf(log, "uploaded %d bytes as %s (%d chunks, %d records)\n",
		off, info.Address, info.Chunks, info.Records)

	// Strings and an integer: the marshal cannot fail.
	spec, _ := json.Marshal(map[string]any{"trace": info.Address, "app": app, "line_size": lineSize})
	st, err := c.SubmitJob(ctx, base+"/v1/analyses", spec)
	if err != nil {
		return "", fmt.Errorf("submitting the analysis: %w", err)
	}
	if st.Result == nil { // not answered from the cache: follow the job
		// The stream's output is progress plus the report; the report
		// alone is the result.
		id := st.ID
		if st, err = c.Follow(ctx, base, id, io.Discard); err != nil {
			return "", fmt.Errorf("following analysis job %s: %w", id, err)
		}
	}
	if st.State != "done" || st.Result == nil {
		return "", fmt.Errorf("remote analysis %s: %s", st.State, st.Error)
	}
	return st.Result.Output, nil
}

// putPart uploads one part and returns the server's offset after it:
// a 409 carries the offset to resume from, so a disagreement with the
// server resolves in one extra round trip.
func putPart(ctx context.Context, c *cluster.Client, base, id string, off int64, part []byte) (int64, error) {
	url := fmt.Sprintf("%s/v1/traces/uploads/%s?offset=%d", base, id, off)
	resp, err := c.Do(ctx, http.MethodPut, url, "application/octet-stream", part)
	if err != nil {
		return 0, err
	}
	if resp.Code != http.StatusOK && resp.Code != http.StatusConflict {
		return 0, fmt.Errorf("upload part at %d: %w", off, resp.Err())
	}
	var ack server.UploadStatus
	if err := json.Unmarshal(resp.Body, &ack); err != nil {
		return 0, err
	}
	return ack.Offset, nil
}

// post sends a body-less POST and decodes its JSON answer into out.
func post(ctx context.Context, c *cluster.Client, url string, out any) error {
	resp, err := c.Do(ctx, http.MethodPost, url, "", nil)
	if err == nil {
		err = resp.Err()
	}
	if err != nil {
		return fmt.Errorf("POST %s: %w", url, err)
	}
	return json.Unmarshal(resp.Body, out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prestore-trace:", err)
	os.Exit(1)
}
