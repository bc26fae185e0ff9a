package obs

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape renders r and parses it back with the strict parser.
func scrape(t *testing.T, r *Registry) (string, map[string]*Family) {
	t.Helper()
	var b bytes.Buffer
	r.Write(&b)
	fams, err := ParseMetrics(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("registry output does not parse: %v\n%s", err, b.String())
	}
	byName := map[string]*Family{}
	for _, f := range fams {
		if byName[f.Name] != nil {
			t.Fatalf("family %s declared twice:\n%s", f.Name, b.String())
		}
		byName[f.Name] = f
	}
	return b.String(), byName
}

// TestRegistryExposition pins the writer's bytes for every shape: HELP
// and TYPE per family, counters as integers, gauges as %g, labeled
// series in sorted label order, cumulative histogram buckets with the
// sum in seconds — and no family for a labeled set with no series.
func TestRegistryExposition(t *testing.T) {
	var r Registry
	c := r.Counter("t_done_total", "Done.")
	r.GaugeFunc("t_ratio", "A ratio.", func() float64 { return 0.5 })
	v := r.CounterVec("t_finished_total", "By kind and state.", "kind", "state")
	r.CounterVec("t_empty_total", "Never counted.", "kind")
	h := r.HistogramVec("t_wait_seconds", "Waits.", "kind", []float64{0.01, 1})
	r.GaugeVecFunc("t_info", "Info.", []string{"version"}, func(set func(float64, ...string)) { set(1, `v"1`) })

	c.Add(3)
	v.Inc("scenario", "done")
	v.Inc("eval", "failed")
	v.Inc("eval", "done")
	h.Observe("eval", 5*time.Millisecond)
	h.Observe("eval", 2*time.Second)

	got, _ := scrape(t, &r)
	want := `# HELP t_done_total Done.
# TYPE t_done_total counter
t_done_total 3
# HELP t_ratio A ratio.
# TYPE t_ratio gauge
t_ratio 0.5
# HELP t_finished_total By kind and state.
# TYPE t_finished_total counter
t_finished_total{kind="eval",state="done"} 1
t_finished_total{kind="eval",state="failed"} 1
t_finished_total{kind="scenario",state="done"} 1
# HELP t_wait_seconds Waits.
# TYPE t_wait_seconds histogram
t_wait_seconds_bucket{kind="eval",le="0.01"} 1
t_wait_seconds_bucket{kind="eval",le="1"} 1
t_wait_seconds_bucket{kind="eval",le="+Inf"} 2
t_wait_seconds_sum{kind="eval"} 2.005
t_wait_seconds_count{kind="eval"} 2
# HELP t_info Info.
# TYPE t_info gauge
t_info{version="v\"1"} 1
`
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryMonotonicSeeded scrapes a registry before and after
// traffic: seeded series exist at zero from the first scrape, no
// counter series ever disappears or decreases, a labeled family
// appears only once it has a series, and a uint64 counter past 1<<63
// stays positive.
func TestRegistryMonotonicSeeded(t *testing.T) {
	var r Registry
	shards := r.CounterVec("t_routed_total", "Routed.", "shard")
	shards.Seed("http://a")
	shards.Seed("http://b")
	byKind := r.CounterVec("t_jobs_total", "Jobs.", "kind")
	big := r.Counter("t_big_total", "Big.")
	big.Add(math.MaxInt64 + 2)
	hist := r.HistogramVec("t_run_seconds", "Runs.", "kind", []float64{0.1})

	_, before := scrape(t, &r)
	rt := before["t_routed_total"]
	if rt == nil || len(rt.Samples) != 2 {
		t.Fatalf("seeded family: %+v", rt)
	}
	for _, s := range rt.Samples {
		if s.Value != "0" {
			t.Errorf("seeded series %v = %s, want 0", s.Labels, s.Value)
		}
	}
	for _, name := range []string{"t_jobs_total", "t_run_seconds"} {
		if before[name] != nil {
			t.Errorf("empty labeled family %s rendered: %+v", name, before[name])
		}
	}
	if v := before["t_big_total"].Samples[0].Value; strings.HasPrefix(v, "-") {
		t.Errorf("uint64 counter rendered negative: %s", v)
	}

	shards.Inc("http://b")
	shards.Inc("http://c")
	byKind.Inc("eval")
	hist.Observe("eval", time.Second)
	big.Inc()

	_, after := scrape(t, &r)
	for name, f := range before {
		if f.Type != "counter" && f.Type != "histogram" {
			continue
		}
		af := after[name]
		if af == nil {
			t.Errorf("family %s vanished", name)
			continue
		}
		for _, s := range f.Samples {
			found := false
			for _, as := range af.Samples {
				if as.Name != s.Name || len(as.Labels) != len(s.Labels) || (len(s.Labels) > 0 && as.Labels[0] != s.Labels[0]) {
					continue
				}
				found = true
				sv, _ := s.Float()
				av, _ := as.Float()
				if av < sv {
					t.Errorf("counter %s%v went backwards: %g -> %g", s.Name, s.Labels, sv, av)
				}
			}
			if !found {
				t.Errorf("series %s%v disappeared", s.Name, s.Labels)
			}
		}
	}
	if got := shards.Value("http://c"); got != 1 {
		t.Errorf("series created by Inc = %d, want 1", got)
	}
	for _, name := range []string{"t_jobs_total", "t_run_seconds"} {
		if after[name] == nil {
			t.Errorf("labeled family %s missing once it has a series", name)
		}
	}
}

func TestRegistryDuplicateFamilyPanics(t *testing.T) {
	var r Registry
	r.Counter("t_x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a family twice did not panic")
		}
	}()
	r.GaugeFunc("t_x_total", "X again.", func() float64 { return 0 })
}

// TestRegistryConcurrent updates every mutable shape from several
// goroutines while scraping; run under -race. The final counts are
// exact.
func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	c := r.Counter("t_c_total", "C.")
	v := r.CounterVec("t_v_total", "V.", "kind")
	h := r.HistogramVec("t_h_seconds", "H.", "kind", []float64{0.5})
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(kind string) {
			defer wg.Done()
			for n := 0; n < each; n++ {
				c.Inc()
				v.Inc(kind)
				h.Observe(kind, time.Millisecond)
				if n%50 == 0 {
					r.Write(io.Discard)
				}
			}
		}([]string{"a", "b"}[i%2])
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := v.Value("a") + v.Value("b"); got != workers*each {
		t.Errorf("labeled counter total = %d, want %d", got, workers*each)
	}
	_, fams := scrape(t, &r)
	var count float64
	for _, s := range fams["t_h_seconds"].Samples {
		if s.Name == "t_h_seconds_count" {
			n, _ := s.Float()
			count += n
		}
	}
	if count != workers*each {
		t.Errorf("histogram count = %g, want %d", count, workers*each)
	}
}
