package scenario

import (
	"testing"
)

// kvSpec returns a ycsb sweep shaped like the named KV experiments:
// fig10-like when sweeping value_size, kv-threads-like when sweeping
// threads at 1 KiB values.
func kvSpec(axis Axis, params map[string]any) Spec {
	p := map[string]any{"store": "clht", "records": 400000, "ops": 6000, "threads": 10, "seed": 99}
	for k, v := range params {
		p[k] = v
	}
	return Spec{
		Version:  1,
		Machine:  MachineSpec{Preset: "machine-a"},
		Workload: WorkloadSpec{Name: "ycsb", Params: p},
		Policy: PolicySpec{
			Ops:     []string{"none", "clean"},
			Axes:    []Axis{axis},
			Columns: []Column{{Title: "x", Axis: axis.Param}},
		},
		Run: RunSpec{Quick: map[string]any{"records": 100000, "ops": 1500}},
	}
}

// pointKeys returns the warm key of every grid row of s, as the runner
// derives it. The ycsb workload is registered by this test binary's
// external test files (warmrun_test.go).
func pointKeys(t *testing.T, s Spec, build string) []string {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	wl, _ := Get(s.Workload.Name)
	var keys []string
	for _, r := range s.grid(s.Policy.Axes, s.baseParams(false)) {
		m, err := s.buildMachine(r.machine)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, warmKey(build, wl, m.ConfigHash(), r.params))
	}
	return keys
}

// TestWarmKey pins the single warm-state key: two different specs that
// agree on workload, machine config and warm parameters share it; any
// warm parameter, the machine config (device patches included) and the
// build each change it.
func TestWarmKey(t *testing.T) {
	fig10 := kvSpec(Axis{Param: "value_size", Values: []any{256, 1024, 4096}}, nil)
	threads := kvSpec(Axis{Param: "threads", Values: []any{2, 10}}, map[string]any{"value_size": 1024})
	a := pointKeys(t, fig10, "build-1")
	b := pointKeys(t, threads, "build-1")
	if a[1] != b[0] || b[0] != b[1] {
		t.Fatalf("1 KiB points of a value sweep and a thread sweep do not share a key:\n%v\n%v", a, b)
	}
	if a[0] == a[1] || a[1] == a[2] {
		t.Errorf("value sizes share a key: %v", a)
	}
	if k := pointKeys(t, threads, "build-2"); k[0] == b[0] {
		t.Error("build change: key unchanged; checkpoints must not survive a simulator change")
	}

	diff := map[string]func(*Spec){
		"store":   func(s *Spec) { s.Workload.Params["store"] = "masstree" },
		"records": func(s *Spec) { s.Workload.Params["records"] = 50000 },
		"heap":    func(s *Spec) { s.Workload.Params["heap"] = 1 << 30 },
		"window":  func(s *Spec) { s.Policy.Window = "dram" },
		"machine": func(s *Spec) { s.Machine.Preset = "machine-c"; s.Policy.Window = "cxlssd" },
		"config axis": func(s *Spec) {
			s.Policy.Axes = append(s.Policy.Axes, Axis{Param: "config.llc.policy", Values: []any{"LRU"}})
		},
		"device patch": func(s *Spec) {
			s.Machine.Devices = map[string]map[string]any{"pmem": {"buffer_entries": float64(8)}}
		},
		"device axis": func(s *Spec) {
			s.Policy.Axes = append(s.Policy.Axes, Axis{Param: "devices.pmem.write_lat", Values: []any{float64(900)}})
		},
	}
	for name, mutate := range diff {
		s := kvSpec(Axis{Param: "threads", Values: []any{2, 10}}, map[string]any{"value_size": 1024})
		mutate(&s)
		if k := pointKeys(t, s, "build-1"); k[0] == b[0] {
			t.Errorf("%s changed: key unchanged; a different warm state would share a checkpoint", name)
		}
	}

	same := map[string]func(*Spec){
		"seed":  func(s *Spec) { s.Run.Seed = 7 },
		"ops":   func(s *Spec) { s.Workload.Params["ops"] = 100 },
		"mix":   func(s *Spec) { s.Workload.Params["mix"] = "F" },
		"title": func(s *Spec) { s.Title = "renamed" },
		"op set": func(s *Spec) {
			s.Policy.Ops = []string{"skip"}
			s.Policy.Columns = []Column{{Title: "t", Axis: "threads"}}
		},
	}
	for name, mutate := range same {
		s := kvSpec(Axis{Param: "threads", Values: []any{2, 10}}, map[string]any{"value_size": 1024})
		mutate(&s)
		if k := pointKeys(t, s, "build-1"); k[0] != b[0] {
			t.Errorf("%s changed: key changed; the load phase does not depend on it", name)
		}
	}
}

// TestWarmRunKey pins the per-point inputs of the key: sensitive to the
// config hash and the declared warm parameters' effective values,
// insensitive to measured-phase parameters, declaration order and the
// Go type a number arrives in.
func TestWarmRunKey(t *testing.T) {
	wl := Workload{Name: "w", WarmParams: []string{"store", "records", "value_size"}}
	p := Params{"store": "clht", "records": 100000, "value_size": 256, "threads": 10, "mix": "A"}
	base := warmKey("b", wl, "cfg-1", p)

	if k := warmKey("b", wl, "cfg-1", p.clone()); k != base {
		t.Error("same inputs hashed twice differ")
	}
	if k := warmKey("b", wl, "cfg-2", p); k == base {
		t.Error("config hash ignored")
	}
	other := wl
	other.Name = "v"
	if k := warmKey("b", other, "cfg-1", p); k == base {
		t.Error("workload name ignored")
	}
	other.Name, other.WarmParams = "w", []string{"records", "value_size", "store"}
	if k := warmKey("b", other, "cfg-1", p); k != base {
		t.Error("warm-param declaration order leaked into the key")
	}

	q := p.clone()
	q["threads"] = 4
	q["mix"] = "F"
	if k := warmKey("b", wl, "cfg-1", q); k != base {
		t.Error("measured-phase params leaked into the key; sibling grid points would never share a checkpoint")
	}
	q = p.clone()
	q["records"] = float64(100000) // a decoded JSON spec carries float64
	if k := warmKey("b", wl, "cfg-1", q); k != base {
		t.Error("int and float64 spellings of one value hash differently")
	}
	q = p.clone()
	q["value_size"] = 1024
	if k := warmKey("b", wl, "cfg-1", q); k == base {
		t.Error("warm param value ignored; grid points with different loads would share a checkpoint")
	}
}

// FuzzWarmKey hammers the key derivation: for any parameter name and
// pair of values, the key is deterministic, a parameter outside the
// workload's warm set never moves it, and a warm parameter's value
// always does.
func FuzzWarmKey(f *testing.F) {
	f.Add("value_size", int64(64), int64(4096), true)
	f.Add("records", int64(100), int64(100000), false)
	f.Add("", int64(0), int64(0), true)
	f.Add("op", int64(1), int64(2), true)
	f.Add("machine", int64(-1), int64(1), false)
	f.Fuzz(func(t *testing.T, name string, v1, v2 int64, warm bool) {
		wl := Workload{Name: "w"}
		if warm {
			wl.WarmParams = []string{"store", name}
		}
		key := func(v int64) string {
			return warmKey("b", wl, "cfg", Params{"store": "clht", name: v})
		}
		k1, k2 := key(v1), key(v2)
		if key(v1) != k1 {
			t.Fatalf("non-deterministic key for %q", name)
		}
		if !warm && k1 != k2 {
			t.Errorf("non-warm param %q: value leaked into the key", name)
		}
		if warm && name != "store" && v1 != v2 && k1 == k2 {
			t.Errorf("warm param %q: value ignored by the key", name)
		}
	})
}
