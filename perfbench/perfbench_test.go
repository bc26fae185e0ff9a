package main

// The benchmark's self-test, at its smallest size. Run it from this
// directory with
//
//	go test ./...

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestLayerDefsMatchBenchmarkJSON keeps the per-layer list the code
// emits and the one BENCHMARK.json declares identical.
func TestLayerDefsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bj.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, got, d)
		}
	}
}

// TestEveryMetricEmitted runs every workload at the smallest size,
// untraced and traced, through the built binaries, and checks that each
// run passes its output checks and reports every metric BENCHMARK.json
// names, with its unit, and nothing else.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	bin, prestored := filepath.Join(dir, "perfbench"), filepath.Join(dir, "prestored")
	for _, b := range [][]string{{"-o", bin, "."}, {"-o", prestored, "prestores/cmd/prestored"}} {
		if out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	bj := readBenchmarkJSON(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bj.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, wl := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(bin, "--workload", wl.Name, "--seed", "1", "--seconds", "1",
				"--trace", trace, "--scale", "small", "--prestored", prestored,
				"--work", filepath.Join(dir, "work"), "--out", filepath.Join(dir, "out"))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s --trace %s: %v\n%s", wl.Name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: correct %v, %d of %d failed\n%s", wl.Name, trace,
					res.Correct, res.Failed, res.Attempted, out)
			}
			got := map[string]string{}
			for n, m := range res.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s --trace %s: metrics %v, want %v", wl.Name, trace, got, want[trace])
			}
			if trace == "1" {
				base := filepath.Join(dir, "out", wl.Name+"-seed1")
				for _, f := range []string{base + ".spans.json", base + ".layers.json"} {
					if _, err := os.Stat(f); err != nil {
						t.Errorf("%s: traced run wrote no %s", wl.Name, f)
					}
				}
			}
		}
	}
}

// TestCorruptDigestIsCountedFailure checks that an output differing
// from the pinned digest, or from the run's first repetition, becomes
// a counted failure that fails its repetition.
func TestCorruptDigestIsCountedFailure(t *testing.T) {
	o := opts{workload: wlKV, seed: defaultSeed, scale: "small", work: t.TempDir()}
	r, err := kvRep(o, func() {})
	if err != nil {
		t.Fatal(err)
	}
	r.WallS = 1
	verifyFirst(o, r)
	checkRepeat(r, r)
	if len(r.Failures) != 0 {
		t.Fatalf("clean repetition failed its checks: %v", r.Failures)
	}
	bad := *r
	bad.Failures = nil
	bad.Digests = []string{strings.Repeat("0", 64)}
	verifyFirst(o, &bad)
	checkRepeat(r, &bad)
	if got := len(bad.Failures); got != 2 {
		t.Fatalf("corrupted digest counted %d failures, want 2 (pinned and repeat)", got)
	}
	s := &summary{}
	for _, x := range []*rep{r, r, r, &bad} {
		s.add(x)
	}
	if got := s.endToEnd()["success_ratio"].Value; got != 0.75 {
		t.Fatalf("one failed repetition of four gave success_ratio %v, want 0.75", got)
	}
}

// TestSeedChangesInputs checks that the generated inputs are a
// function of the seed: equal seeds give equal inputs, different seeds
// different ones.
func TestSeedChangesInputs(t *testing.T) {
	inputs := func(seed int64) []byte {
		var b bytes.Buffer
		b.Write(kvSpecJSON(seed, "small"))
		for _, in := range traceInputs(seed, "small") {
			p, _ := json.Marshal(in.params)
			b.Write(p)
		}
		plan, err := clusterPlan(seed, "small")
		if err != nil {
			t.Fatal(err)
		}
		for _, tasks := range plan {
			for _, tk := range tasks {
				body, _ := evalBody(tk.base, false)
				p, _ := json.Marshal(tk.params)
				b.WriteString(tk.exp)
				b.Write(body)
				b.Write(p)
			}
		}
		return b.Bytes()
	}
	if !bytes.Equal(inputs(7), inputs(7)) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(inputs(7), inputs(8)) {
		t.Fatal("different seeds generated the same inputs")
	}
	if !bytes.Equal(kvSpecJSON(7, "full")[:40], kvSpecJSON(8, "full")[:40]) {
		t.Fatal("the seed changed the spec's shape, not only its data")
	}
}

// TestTraceChecks runs one trace-dirtbuster repetition and the
// monolithic-analysis check the first repetition of a run gets.
func TestTraceChecks(t *testing.T) {
	o := opts{workload: wlTrace, seed: 3, scale: "small", work: t.TempDir(), keep: true, traced: true}
	r, err := traceRep(o, func() {})
	if err != nil {
		t.Fatal(err)
	}
	verifyTraces(r, len(traceInputs(o.seed, o.scale)))
	if len(r.Failures) != 0 || r.Attempted == 0 {
		t.Fatalf("trace checks: %d attempted, failures %v", r.Attempted, r.Failures)
	}
	if r.Layer["trace.encode_ns_per_record"] <= 0 || r.Layer["trace.decode_ns_per_record"] <= 0 {
		t.Errorf("traced repetition measured no codec time: %v", r.Layer)
	}
	if r.Profile == nil {
		t.Error("traced repetition has no CPU profile")
	}
	if len(r.Spans) == 0 {
		t.Error("traced repetition recorded no spans")
	}
}
