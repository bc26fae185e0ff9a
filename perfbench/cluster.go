package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"prestores/internal/autotune"
	"prestores/internal/obs"
	"prestores/internal/scenario"
	"prestores/internal/telemetry"
)

// clusterSize is the YCSB size of every searched spec.
var clusterSize = map[string]struct{ records, ops, threads int }{
	"full":  {2000, 100, 4},
	"small": {1000, 20, 2},
}

// checkpointBytes bounds each worker's in-memory checkpoint store, so
// the two workers' memory stays well below the host's.
const checkpointBytes = "67108864"

// clusterExperiments are the quick Machine B experiments each client
// submits, as prestore-bench -server sends them; fig5 is submitted by
// both, so one of the two is answered from the cache or coalesced.
var clusterExperiments = [2][]string{{"fig5", "x9"}, {"ablate-dir", "fig5"}}

// task is one step of a client's plan: an autotune search over base,
// or the submit of the quick experiment exp.
type task struct {
	base   scenario.Spec
	params autotune.Params
	exp    string
}

// clusterPlan generates the two clients' plans from the seed. The
// base specs are single-point YCSB-A specs on machine-b-fast and
// machine-b-slow in the fpga window, at three seeded workload seeds.
// Client 0 tunes the first four, client 1 the last four, so half of
// each client's searches overlap the other's, as when two users tune
// overlapping configurations. Each search uses the engine's default
// budget and restarts, adds the dram window to the searched
// placements, and has its own seeded search seed. The experiments go
// between searches at seeded positions. The seed chooses the workload
// seeds, the search seeds and the order; every seed gives the same
// shape of work.
func clusterPlan(seed int64, scale string) ([2][]task, error) {
	sz := clusterSize[scale]
	rng := rand.New(rand.NewSource(seed))
	var bases []scenario.Spec
	for i := 0; i < 3; i++ {
		ws := workloadSeed(seed, uint64(1000+i))
		for _, m := range []string{"machine-b-fast", "machine-b-slow"} {
			sp, err := scenario.Decode([]byte(fmt.Sprintf(`{"version":1,"machine":{"preset":%q},`+
				`"workload":{"name":"ycsb","params":{"store":"clht","mix":"A",`+
				`"records":%d,"ops":%d,"threads":%d,"value_size":256,"seed":%d}},`+
				`"policy":{"window":"fpga","ops":["none"],"columns":[{"title":"ops/s","op":"none","metric":"ops_per_sec"}]}}`,
				m, sz.records, sz.ops, sz.threads, ws)))
			if err != nil {
				return [2][]task{}, fmt.Errorf("service-cluster base spec: %w", err)
			}
			bases = append(bases, sp)
		}
	}
	var plan [2][]task
	for c := range plan {
		for i, b := range bases[2*c : 2*c+4] {
			plan[c] = append(plan[c], task{base: b, params: autotune.Params{
				Seed: workloadSeed(seed, uint64(2000+10*c+i)), Windows: []string{"dram"}}})
		}
		rng.Shuffle(len(plan[c]), func(a, b int) { plan[c][a], plan[c][b] = plan[c][b], plan[c][a] })
		for _, id := range clusterExperiments[c] {
			at := 1 + rng.Intn(len(plan[c]))
			plan[c] = append(plan[c][:at], append([]task{{exp: id}}, plan[c][at:]...)...)
		}
	}
	return plan, nil
}

// runCluster runs service-cluster: every repetition starts a fresh
// coordinator and two single-worker daemons, runs the two closed-loop
// clients' plans of autotune searches and experiments through the
// coordinator, checks the outputs and stops the daemons.
func runCluster(o opts) (*summary, error) {
	if o.prestored == "" {
		return nil, errors.New("service-cluster needs --prestored")
	}
	plan, err := clusterPlan(o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	s := &summary{}
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	var first *rep
	for i := 0; ; i++ {
		t0 := time.Now()
		traced := o.traced && i%2 == 1
		profileS := 0
		if traced {
			profileS = int(math.Ceil(first.WallS))
		}
		r, err := clusterRep(o, plan, traced, profileS)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = r
		} else {
			checkRepeat(first, r)
		}
		s.add(r)
		if i+1 >= minReps && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	return s, nil
}

// daemon is one prestored process.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// freeAddr returns a loopback address that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startDaemon(bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &daemon{cmd: cmd, url: "http://" + addr}, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(client *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", url)
}

// stop reads the daemon's peak RSS in MB, asks it to drain, and kills
// it if it does not.
func (d *daemon) stop() float64 {
	rss := peakRSSMB(d.cmd.Process.Pid)
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	return rss
}

// jobOutcome is one client-observed job.
type jobOutcome struct {
	latency float64
	cached  bool
	output  string
	id      string
	err     error
}

// streamEvent mirrors the daemon's NDJSON progress events.
type streamEvent struct {
	Event string `json:"event"`
	Job   *struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
		Result *struct {
			Output string `json:"output"`
			Err    string `json:"err"`
		} `json:"result"`
	} `json:"job"`
}

// submitStream posts one job with ?stream=1 and follows its NDJSON
// stream to the "done" event.
func submitStream(ctx context.Context, client *http.Client, url string, body []byte) jobOutcome {
	var out jobOutcome
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectContext(ctx, req.Header)
	resp, err := client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return out
	}
	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	for {
		var ev streamEvent
		if err := dec.Decode(&ev); err != nil {
			out.err = fmt.Errorf("stream ended without a done event: %v", err)
			return out
		}
		if ev.Job != nil {
			out.id = ev.Job.ID
			out.cached = out.cached || ev.Job.Cached
		}
		if ev.Event != "done" {
			continue
		}
		switch {
		case ev.Job == nil || ev.Job.Result == nil:
			out.err = errors.New("done event without a result")
		case ev.Job.State != "done":
			out.err = fmt.Errorf("job %s ended %s: %s", ev.Job.ID, ev.Job.State, ev.Job.Result.Err)
		default:
			out.output = ev.Job.Result.Output
		}
		return out
	}
}

// job is one submit a client made and what it observed.
type job struct {
	kind string // "eval", "probe", "variant" or "experiment"
	key  string // path and body of the submit this one must answer like
	jobOutcome
}

// clusterClient is one closed-loop client: it submits one job at a
// time and follows it to its done event before sending the next.
type clusterClient struct {
	http *http.Client
	url  string
	tr   tracer
	jobs []job
	errs []string // failed searches
}

func (c *clusterClient) submit(kind, path string, body []byte) job {
	ctx, span := c.tr.Start(context.Background(), "client.submit", obs.KV("kind", kind))
	t0 := time.Now()
	j := job{kind: kind, key: path + " " + string(body),
		jobOutcome: submitStream(ctx, c.http, c.url+path+"?stream=1", body)}
	j.latency = since(t0)
	span.End()
	c.jobs = append(c.jobs, j)
	return j
}

// evalBody is the submit body of a single-point spec, spelled as the
// coordinator's own autotune evaluator spells it: the canonical spec,
// with quick left out when false.
func evalBody(sp scenario.Spec, quick bool) ([]byte, error) {
	canon, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Spec  json.RawMessage `json:"spec"`
		Quick bool            `json:"quick,omitempty"`
	}{canon, quick})
}

// Eval makes the client an autotune.Evaluator: every candidate goes
// to the cluster as POST /v1/eval.
func (c *clusterClient) Eval(_ context.Context, sp scenario.Spec, quick bool) (scenario.Metrics, error) {
	body, err := evalBody(sp, quick)
	if err != nil {
		return nil, err
	}
	j := c.submit("eval", "/v1/eval", body)
	if j.err != nil {
		return nil, j.err
	}
	var m scenario.Metrics
	if err := json.Unmarshal([]byte(j.output), &m); err != nil {
		return nil, fmt.Errorf("eval %s: bad metrics: %v", j.id, err)
	}
	return m, nil
}

// Probe runs the search's telemetry probe as a scenario job and reads
// its line report, as the coordinator's evaluator does.
func (c *clusterClient) Probe(_ context.Context, sp scenario.Spec, quick bool) (*telemetry.LineReport, error) {
	body, err := evalBody(sp, quick)
	if err != nil {
		return nil, err
	}
	j := c.submit("probe", "/v1/scenarios", body)
	if j.err != nil {
		return nil, j.err
	}
	resp, err := c.http.Get(c.url + "/v1/jobs/" + j.id + "/linereport")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("linereport of %s: HTTP %d", j.id, resp.StatusCode)
	}
	return telemetry.DecodeLineReport(data)
}

// run works through the client's plan. After each search the client
// resends the winner as one eval with the default "quick": false
// spelled out: the daemons' cache key is the same, the coordinator's
// route key is not.
func (c *clusterClient) run(plan []task) {
	for _, t := range plan {
		if t.exp != "" {
			c.submit("experiment", "/v1/experiments", []byte(fmt.Sprintf(`{"id":%q,"quick":true}`, t.exp)))
			continue
		}
		res, err := autotune.Run(context.Background(), t.base, t.params, c, nil)
		var body []byte
		if err == nil {
			body, err = evalBody(res.WinnerSpec, false)
		}
		if err != nil {
			c.errs = append(c.errs, fmt.Sprintf("autotune search: %v", err))
			continue
		}
		variant := append([]byte(nil), bytes.TrimSuffix(body, []byte("}"))...)
		variant = append(variant, `,"quick":false}`...)
		c.submit("variant", "/v1/eval", variant)
		c.jobs[len(c.jobs)-1].key = "/v1/eval " + string(body) // it must answer like the winner's eval
	}
}

// clusterRep runs one service-cluster repetition.
func clusterRep(o opts, plan [2][]task, traced bool, profileS int) (*rep, error) {
	r := &rep{Traced: traced, Layer: map[string]float64{}}
	tr := newTracer(traced)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	// Set-up: fresh daemons with empty result caches and checkpoint
	// stores, up and healthy.
	t0 := time.Now()
	var workerArgs []string
	if traced {
		workerArgs = append(workerArgs, "-pprof")
	}
	var procs []*daemon
	defer func() {
		for _, d := range procs {
			if d.cmd.ProcessState == nil {
				d.stop()
			}
		}
	}()
	for i := 0; i < 2; i++ {
		d, err := startDaemon(o.prestored, append([]string{"-workers", "1", "-checkpoint-bytes", checkpointBytes}, workerArgs...)...)
		if err != nil {
			return nil, err
		}
		procs = append(procs, d)
	}
	for _, d := range procs {
		if err := waitHealthy(client, d.url); err != nil {
			return nil, err
		}
	}
	coord, err := startDaemon(o.prestored, "-coordinator", "-shards", procs[0].url+","+procs[1].url)
	if err != nil {
		return nil, err
	}
	procs = append([]*daemon{coord}, procs...)
	if err := waitHealthy(client, coord.url); err != nil {
		return nil, err
	}
	r.SetupS = since(t0)

	// CPU profiles of the workers cover the timed sequence.
	var profWG sync.WaitGroup
	profiles := make([]map[string]int64, 2)
	if traced && profileS > 0 {
		for i, d := range procs[1:] {
			profWG.Add(1)
			go func(i int, url string) {
				defer profWG.Done()
				profiles[i] = fetchProfile(client, url, o.work, profileS)
			}(i, d.url)
		}
	}

	// The timed sequence: two closed-loop clients.
	clients := [2]*clusterClient{}
	var wg sync.WaitGroup
	t1 := time.Now()
	for c := range plan {
		clients[c] = &clusterClient{http: client, url: coord.url, tr: tr}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			clients[c].run(plan[c])
		}(c)
	}
	wg.Wait()
	r.WallS = since(t1)
	profWG.Wait()

	// Checks and per-layer measurements, outside the timed region.
	// Identical submits, from either client, must answer identically.
	answers := map[string]string{}
	kinds, repeated := map[string]int{}, map[string]int{}
	var evals []job
	var hits, variants, variantHits int
	for c, cl := range clients {
		for _, e := range cl.errs {
			r.check(false, "client %d: %s", c, e)
		}
		for i, j := range cl.jobs {
			r.Attempted++
			r.JobsS = append(r.JobsS, j.latency)
			kinds[j.kind]++
			if j.err != nil {
				r.fail("client %d job %d (%s): %v", c, i, j.kind, j.err)
				continue
			}
			if j.cached {
				hits++
			}
			if j.kind == "variant" {
				variants++
				if j.cached {
					variantHits++
				}
			}
			if prev, ok := answers[j.key]; ok {
				repeated[j.kind]++
				r.check(j.output == prev, "client %d job %d (%s) differs from an identical earlier submit", c, i, j.kind)
			} else {
				r.check(j.kind != "variant", "client %d job %d: variant of a winner never evaluated", c, i)
				answers[j.key] = j.output
				if j.kind == "eval" {
					evals = append(evals, j)
				}
			}
		}
	}
	fmt.Printf("mix of %d jobs: %d eval, %d probe, %d variant, %d experiment; repeating an earlier submit: %d eval, %d probe, %d experiment\n",
		len(r.JobsS), kinds["eval"], kinds["probe"], kinds["variant"], kinds["experiment"],
		repeated["eval"], repeated["probe"], repeated["experiment"])
	// A search may send a batch's candidates in any order, so the
	// digest covers every distinct submit's answer in key order, and
	// the evals checked in process are drawn in key order too.
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var all strings.Builder
	for _, k := range keys {
		all.WriteString(k + "\n" + answers[k] + "\n")
	}
	r.Digests = []string{digest(all.String())}
	sort.Slice(evals, func(a, b int) bool { return evals[a].key < evals[b].key })
	r.checkEvals(evals, o.seed)
	r.Layer["server.cache_hit_ratio"] = float64(hits) / float64(max(len(r.JobsS), 1))
	r.Layer["cluster.variant_hit_ratio"] = float64(variantHits) / float64(max(variants, 1))
	if err := r.scrape(client, coord.url); err != nil {
		r.check(false, "scraping coordinator metrics: %v", err)
	}
	if traced {
		r.proxyOverhead(client, coord.url, procs[1:], evals)
		r.serverSpans(client, coord.url, clients)
		r.Spans = append(r.Spans, tr.spans()...)
		r.Profile = map[string]int64{}
		for _, p := range profiles {
			for k, v := range p {
				r.Profile[k] += v
			}
		}
	}
	for _, d := range procs {
		r.PeakRSSMB += d.stop()
	}
	return r, nil
}

// checkEvals re-runs a seeded sample of the distinct evals in process
// with scenario.Spec.EvalPoint and compares the metrics byte for byte
// with what the cluster returned. The sample's simulated counters and
// host time feed the sim, cache, memdev and coherence metrics.
func (r *rep) checkEvals(evals []job, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	evals = append([]job(nil), evals...)
	rng.Shuffle(len(evals), func(a, b int) { evals[a], evals[b] = evals[b], evals[a] })
	evals = evals[:min(2, len(evals))]
	w := &pointWatch{pmemOK: true}
	ctx := scenario.WithObserver(context.Background(), w.observe)
	rt0 := readRuntime()
	t0 := time.Now()
	for _, j := range evals {
		var body struct {
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(j.key, "/v1/eval ")), &body); err != nil {
			r.check(false, "decoding submitted eval: %v", err)
			continue
		}
		sp, err := scenario.Decode(body.Spec)
		if err != nil {
			r.check(false, "decoding submitted spec: %v", err)
			continue
		}
		m, err := sp.EvalPoint(ctx, false)
		if err != nil {
			r.check(false, "in-process EvalPoint: %v", err)
			continue
		}
		b, _ := json.Marshal(m)
		r.check(string(b)+"\n" == j.output, "cluster eval %s differs from in-process EvalPoint", j.id)
	}
	end := time.Now()
	w.finish(end)
	rt1 := readRuntime()
	r.check(w.pmemOK, "a PMEM device's media bytes differ from its retired blocks × granularity")
	r.Counts = w.counts
	for k, v := range runtimeLayer(rt0, rt1, w.counts.Instructions) {
		r.Layer[k] = v
	}
	r.Layer["sim.host_ns_per_instr"] = end.Sub(t0).Seconds() * 1e9 / float64(max(w.counts.Instructions, 1))
	r.Layer["scenario.gridpoint_p50_s"] = median(w.points)
	r.Layer["scenario.gridpoint_max_s"] = quantile(w.points, 1)
}

// scrape reads the coordinator's federated /metrics for the checkpoint
// store, the daemons' rejected submits and the coordinator's requeues.
func (r *rep) scrape(client *http.Client, url string) error {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		return err
	}
	sum := map[string]float64{}
	for _, f := range fams {
		for _, smp := range f.Samples {
			if v, err := smp.Float(); err == nil && smp.Name == f.Name {
				sum[f.Name] += v
			}
		}
	}
	hits, misses := sum["prestored_checkpoint_hits_total"], sum["prestored_checkpoint_misses_total"]
	if hits+misses > 0 {
		r.Layer["checkpoint.hit_ratio"] = hits / (hits + misses)
	}
	r.Layer["checkpoint.store_mb"] = sum["prestored_checkpoint_store_bytes"] / (1 << 20)
	r.Layer["server.rejected"] = sum["prestored_jobs_rejected_total"] + sum["prestored_coordinator_rejected_total"]
	r.Layer["cluster.requeued"] = sum["prestored_coordinator_requeued_total"]
	r.check(r.Layer["cluster.requeued"] == 0, "coordinator requeued %v jobs", r.Layer["cluster.requeued"])
	return nil
}

// post submits body without streaming and returns the latency and
// whether the daemon answered from its cache.
func post(client *http.Client, url string, body []byte) (float64, bool, error) {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	var st struct {
		Cached bool `json:"cached"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return since(t0), resp.StatusCode == http.StatusOK && st.Cached, err
}

// proxyOverhead times one cached eval through the coordinator and
// straight to the shard holding it, alternating, and reports the
// difference of the medians.
func (r *rep) proxyOverhead(client *http.Client, coordURL string, workers []*daemon, evals []job) {
	if len(evals) == 0 {
		return
	}
	body := []byte(strings.TrimPrefix(evals[0].key, "/v1/eval "))
	holder := ""
	for _, w := range workers {
		if _, cached, err := post(client, w.url+"/v1/eval", body); err == nil && cached {
			holder = w.url
			break
		}
	}
	r.check(holder != "", "no shard holds a cached result for a completed eval")
	if holder == "" {
		return
	}
	var viaCoord, direct []float64
	for i := 0; i < 20; i++ {
		if d, ok, err := post(client, coordURL+"/v1/eval", body); err == nil && ok {
			viaCoord = append(viaCoord, d)
		}
		if d, ok, err := post(client, holder+"/v1/eval", body); err == nil && ok {
			direct = append(direct, d)
		}
	}
	r.Layer["cluster.proxy_overhead_ms"] = (median(viaCoord) - median(direct)) * 1e3
}

// serverSpans pulls every job's spans from the coordinator, which
// merges its own with the owning shard's, and reports the median
// queue wait and run time of the jobs that ran.
func (r *rep) serverSpans(client *http.Client, coordURL string, clients [2]*clusterClient) {
	var waits, runs []float64
	for _, cl := range clients {
		for _, out := range cl.jobs {
			if out.id == "" {
				continue
			}
			resp, err := client.Get(coordURL + "/v1/jobs/" + out.id + "/spans")
			if err != nil {
				continue
			}
			var tl struct {
				Spans []obs.Span `json:"spans"`
			}
			err = json.NewDecoder(resp.Body).Decode(&tl)
			resp.Body.Close()
			if err != nil {
				continue
			}
			r.Spans = append(r.Spans, tl.Spans...)
			for _, sp := range tl.Spans {
				switch sp.Name {
				case "queue.wait":
					waits = append(waits, sp.Duration().Seconds()*1e3)
				case "run":
					runs = append(runs, sp.Duration().Seconds()*1e3)
				}
			}
		}
	}
	r.Layer["server.queue_wait_p50_ms"] = median(waits)
	r.Layer["server.run_p50_ms"] = median(runs)
}

// fetchProfile takes a CPU profile of a daemon over its pprof endpoint
// and returns its samples by package.
func fetchProfile(client *http.Client, url, dir string, seconds int) map[string]int64 {
	resp, err := client.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", url, seconds))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon profile:", err)
		return nil
	}
	defer resp.Body.Close()
	f, err := os.CreateTemp(dir, "daemon-*.pprof")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon profile:", err)
		return nil
	}
	defer os.Remove(f.Name())
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon profile:", err)
		return nil
	}
	return samplesByPackage(f.Name())
}
