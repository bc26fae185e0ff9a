package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prestores/internal/dirtbuster"
	"prestores/internal/obs"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/trace"
)

// traceInput is one registered scenario workload the trace-dirtbuster
// workload records on machine-a and then analyzes.
type traceInput struct {
	name     string // application name the report carries
	workload string // registered scenario workload
	params   scenario.Params
}

// traceInputs generates the trace-dirtbuster inputs from the seed:
// YCSB-A over masstree (random writes with validation fences) and the
// tensor training loop (long sequential writes).
func traceInputs(seed int64, scale string) []traceInput {
	records, ops, features := 20000, 750, 1024
	if scale == "small" {
		records, ops, features = 1000, 50, 256
	}
	return []traceInput{
		{name: "ycsb-masstree", workload: "ycsb", params: scenario.Params{
			"store": "masstree", "mix": "A", "window": sim.WindowPMEM, "records": records, "ops": ops,
			"threads": 4, "value_size": 1024, "seed": workloadSeed(seed, 2)}},
		{name: "tensor-train", workload: "tensor-train", params: scenario.Params{
			"batch": 8, "features": features, "layers": 2, "steps": 1,
			"window": sim.WindowPMEM, "seed": workloadSeed(seed, 3)}},
	}
}

// traceFile is a recorded trace a child leaves for the parent's
// monolithic-analysis check.
type traceFile struct {
	Name     string `json:"name"`
	Path     string `json:"path"`
	LineSize uint64 `json:"line_size"`
	Digest   string `json:"digest"` // sha256 of the chunked analysis report
}

// timedIter wraps a ChunkReader to time Next and count records.
type timedIter struct {
	cr      *trace.ChunkReader
	f       *os.File
	decode  *time.Duration
	records *uint64
	tr      tracer
	parent  obs.SpanContext
}

func (it *timedIter) Next() (*trace.Chunk, error) {
	t0 := time.Now()
	c, err := it.cr.Next()
	t1 := time.Now()
	*it.decode += t1.Sub(t0)
	if err != nil {
		it.f.Close()
		return c, err
	}
	*it.records += uint64(len(c.Records))
	it.tr.Record(it.parent, "trace.ChunkReader.Next", t0, t1)
	return c, nil
}

// traceRep runs one trace-dirtbuster repetition: for each input,
// record the trace through a streaming trace.Writer into a file, then
// analyze it with dirtbuster.AnalyzeChunkSource.
func traceRep(o opts, ready func()) (*rep, error) {
	tr := newTracer(o.traced)
	ctx, setupSpan := tr.Start(context.Background(), "setup")
	inputs := traceInputs(o.seed, o.scale)
	wls := make([]scenario.Workload, len(inputs))
	for i, in := range inputs {
		wl, ok := scenario.Get(in.workload)
		if !ok {
			return nil, fmt.Errorf("workload %q is not registered", in.workload)
		}
		wls[i] = wl
	}
	dir, err := os.MkdirTemp(o.work, "trace-")
	if err != nil {
		return nil, err
	}
	setupSpan.End()
	ready()

	r := &rep{Layer: map[string]float64{}}
	prof := startProfile(o.traced, o.work)
	rt0 := readRuntime()
	var (
		recordS, analyzeS, simS float64
		encode, decode          time.Duration
		written, bytesOut, read uint64
		points                  []float64 // the workloads' simulation runs
	)
	pmemOK := true
	t0 := time.Now()
	for i, in := range inputs {
		jobStart := time.Now()
		path := filepath.Join(dir, in.name+".pst")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		tw := trace.NewWriter(f, trace.WriterOptions{})
		hook := tw.Hook()
		if o.traced {
			inner := hook
			hook = func(ev sim.Event, c *sim.Core) {
				t := time.Now()
				inner(ev, c)
				encode += time.Since(t)
			}
		}
		var m *sim.Machine
		var runErr error
		wl := dirtbuster.Workload{
			Name:       in.name,
			NewMachine: func() *sim.Machine { m = sim.MachineA(); return m },
			Run: func(m *sim.Machine) {
				ts := time.Now()
				_, runErr = wls[i].Run(m, "none", in.params)
				d := since(ts)
				simS += d
				points = append(points, d)
			},
		}
		_, recSpan := tr.Start(ctx, "dirtbuster.RecordStream", obs.KV("input", in.name))
		line := dirtbuster.RecordStream(wl, hook)
		closeErr := tw.Close()
		if err := f.Close(); closeErr == nil {
			closeErr = err
		}
		recSpan.End()
		rec := since(jobStart)
		if st, err := os.Stat(path); err == nil {
			bytesOut += uint64(st.Size())
		}
		r.check(runErr == nil && closeErr == nil, "recording %s: run %v, close %v", in.name, runErr, closeErr)
		if m != nil && !r.Counts.add(m) {
			pmemOK = false
		}
		written += tw.Records()

		anaStart := time.Now()
		actx, anaSpan := tr.Start(ctx, "dirtbuster.AnalyzeChunkSource", obs.KV("input", in.name))
		var passRecords []uint64
		open := func() (dirtbuster.ChunkIter, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			cr, err := trace.NewChunkReader(f)
			if err != nil {
				f.Close()
				return nil, err
			}
			passRecords = append(passRecords, 0)
			sc, _ := obs.SpanFromContext(actx)
			return &timedIter{cr: cr, f: f, decode: &decode, records: &passRecords[len(passRecords)-1],
				tr: tr, parent: sc}, nil
		}
		rpt, err := dirtbuster.AnalyzeChunkSource(in.name, open, line, dirtbuster.Config{})
		anaSpan.End()
		ana := since(anaStart)
		recordS += rec
		analyzeS += ana
		r.JobsS = append(r.JobsS, rec+ana) // a job records, then analyzes, one application
		r.Attempted++
		if err != nil {
			r.fail("analyzing %s: %v", in.name, err)
			continue
		}
		for _, n := range passRecords {
			read += n
			r.check(n == tw.Records(), "%s: read back %d records, writer recorded %d", in.name, n, tw.Records())
		}
		d := digest(rpt.Render())
		r.Digests = append(r.Digests, d)
		r.Traces = append(r.Traces, traceFile{Name: in.name, Path: path, LineSize: line, Digest: d})
	}
	r.WallS = since(t0)
	rt1 := readRuntime()
	r.Profile = prof.stop()
	r.check(pmemOK, "a PMEM device's media bytes differ from its retired blocks × granularity")

	n := float64(len(inputs))
	for k, v := range runtimeLayer(rt0, rt1, r.Counts.Instructions) {
		r.Layer[k] = v
	}
	r.Layer["sim.host_ns_per_instr"] = simS * 1e9 / float64(max(r.Counts.Instructions, 1))
	r.Layer["scenario.gridpoint_p50_s"] = median(points)
	r.Layer["scenario.gridpoint_max_s"] = quantile(points, 1)
	r.Layer["trace.record_s"] = recordS / n
	r.Layer["dirtbuster.analyze_s"] = analyzeS / n
	if written > 0 {
		r.Layer["trace.bytes_per_record"] = float64(bytesOut) / float64(written)
		if o.traced {
			r.Layer["trace.encode_ns_per_record"] = float64(encode.Nanoseconds()) / float64(written)
		}
	}
	if read > 0 {
		r.Layer["trace.decode_ns_per_record"] = float64(decode.Nanoseconds()) / float64(read)
		r.Layer["dirtbuster.self_ns_per_record"] = (analyzeS*1e9 - float64(decode.Nanoseconds())) / float64(read)
		r.Layer["dirtbuster.records_per_s"] = float64(read) / analyzeS
	}
	r.Spans = tr.spans()
	if !o.keep {
		r.Traces = nil
		os.RemoveAll(dir)
	}
	return r, nil
}

// verifyTraces checks, outside any timed region, that the chunked
// report of every trace the first repetition left behind is
// byte-identical to the monolithic dirtbuster.AnalyzeTrace over the
// same file, then removes the files.
func verifyTraces(r *rep, inputs int) {
	var dirs = map[string]bool{}
	for _, tf := range r.Traces {
		dirs[filepath.Dir(tf.Path)] = true
		f, err := os.Open(tf.Path)
		if err != nil {
			r.check(false, "reopening %s: %v", tf.Name, err)
			continue
		}
		tb, err := trace.Decode(f)
		f.Close()
		if err != nil {
			r.check(false, "decoding %s: %v", tf.Name, err)
			continue
		}
		rpt := dirtbuster.AnalyzeTrace(tf.Name, tb, tf.LineSize, dirtbuster.Config{})
		r.check(digest(rpt.Render()) == tf.Digest,
			"%s: chunked report differs from dirtbuster.AnalyzeTrace", tf.Name)
	}
	r.check(len(r.Traces) == inputs, "first repetition left %d of %d traces to verify", len(r.Traces), inputs)
	for d := range dirs {
		os.RemoveAll(d)
	}
}
