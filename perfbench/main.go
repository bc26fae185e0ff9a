// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every output it produces, and
// prints one JSON result line last on standard output:
//
//	bash perfbench/run.sh --workload kv-pmem --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	kv-pmem           one cold scenario.Spec.Exec sweep of YCSB-A on machine-a (PMEM values)
//	trace-dirtbuster  record two seeded traces through trace.Writer, analyze them with
//	                  dirtbuster.AnalyzeChunkSource over trace.ChunkReader
//	service-cluster   a prestored coordinator over two worker daemons, driven by two
//	                  closed-loop HTTP clients
//
// A run repeats the workload's fixed unit of work until --seconds have
// been spent (at least minReps times) and reports medians. kv-pmem and
// trace-dirtbuster run every repetition in a fresh child process of
// this binary, so each starts cold and its peak RSS is its own;
// service-cluster starts fresh daemons for every repetition.
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced run, and the
// span timeline plus the per-layer table are written under --out.
// METRICS.md defines every metric and what should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlKV      = "kv-pmem"
	wlTrace   = "trace-dirtbuster"
	wlCluster = "service-cluster"
)

// minReps is the fewest repetitions a run makes, however long they
// take: medians need at least three values.
const minReps = 3

// opts are the command-line settings shared by the orchestrator and
// its children.
type opts struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	scale     string // "full" or "small" (the self-test size)
	prestored string // prestored binary, for service-cluster
	out       string // artifact directory for traced runs
	work      string // scratch directory inside the checkout
	keep      bool   // child: leave trace files for the parent's check
}

// result is the last line perfbench prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o opts
	var trace int
	child := flag.String("child", "", "internal: run one repetition of this workload and print its measurements")
	flag.StringVar(&o.workload, "workload", "", "workload: kv-pmem, trace-dirtbuster or service-cluster")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the generated inputs depend only on it")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "input size: full, or small for the self-test")
	flag.StringVar(&o.prestored, "prestored", "", "prestored binary (service-cluster)")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "artifact directory for traced runs")
	flag.BoolVar(&o.keep, "keep", false, "internal: leave recorded traces in place for the parent's check")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for traces and daemon state")
	flag.Parse()
	o.traced = trace == 1

	if *child != "" {
		o.workload = *child
		if err := runChild(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if o.scale != "full" && o.scale != "small" {
		fatalf("--scale must be full or small")
	}
	res, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		fatalf("%d of %d checks failed", res.Failed, res.Attempted)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run executes one benchmark invocation and assembles its result.
func run(o opts) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	fp := fingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpJSON)

	var (
		s   *summary
		err error
	)
	switch o.workload {
	case wlKV, wlTrace:
		s, err = runLocal(o)
	case wlCluster:
		s, err = runCluster(o)
	default:
		return nil, fmt.Errorf("unknown --workload %q (kv-pmem, trace-dirtbuster or service-cluster)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	for _, f := range s.failures {
		fmt.Printf("FAIL %s\n", f)
	}
	res := &result{
		Attempted: s.attempted,
		Failed:    len(s.failures),
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	if o.traced {
		res.Metrics = s.layerMetrics()
		if err := writeTraceArtifacts(o, fp, s, res.Metrics); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = s.endToEnd()
	}
	printTable(res.Metrics)
	return res, nil
}

// printTable prints every reported metric by name and unit, ahead of
// the result line.
func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
