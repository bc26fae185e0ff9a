package scenario

import (
	"context"
	"fmt"
	"io"
	"strings"

	"prestores/internal/checkpoint"
	"prestores/internal/sim"
	"prestores/internal/units"
)

// observerKey carries a machine observer through a context (see
// WithObserver).
type observerKey struct{}

// WithObserver returns a context that makes Exec call obs with every
// machine the spec run builds, before the workload runs on it. This is
// the scoped counterpart to sim.ObserveMachines: a daemon running
// concurrent jobs attaches each job's telemetry recorder to that job's
// machines only, via that job's context.
func WithObserver(ctx context.Context, obs func(*sim.Machine)) context.Context {
	return context.WithValue(ctx, observerKey{}, obs)
}

func observerFrom(ctx context.Context) func(*sim.Machine) {
	obs, _ := ctx.Value(observerKey{}).(func(*sim.Machine))
	return obs
}

// Exec runs a validated spec, writing its table to w. quick mode
// applies the axes' Quick value lists and the run.quick parameter
// overrides. The sweep checks ctx before each row and returns silently
// when cancelled, the bench harness's contract with every experiment.
func (s *Spec) Exec(ctx context.Context, w io.Writer, quick bool) error {
	wl, ok := Get(s.Workload.Name)
	if !ok {
		return fmt.Errorf("workload.name: unknown workload %q (one of %v)", s.Workload.Name, WorkloadNames())
	}
	axes := make([]Axis, len(s.Policy.Axes))
	copy(axes, s.Policy.Axes)
	for i := range axes {
		if quick && len(axes[i].Quick) > 0 {
			axes[i].Values = axes[i].Quick
		}
	}

	titles := make([]string, len(s.Policy.Columns))
	for i, c := range s.Policy.Columns {
		titles[i] = c.Title
	}
	WriteRow(w, titles...)

	for _, r := range s.grid(axes, s.baseParams(quick)) {
		if ctx.Err() != nil {
			return nil
		}
		results := make(map[string]Metrics, len(r.ops))
		for _, op := range r.ops {
			m, err := s.runPoint(ctx, wl, r.machine, op, r.params)
			if err != nil {
				return err
			}
			results[op] = m
		}
		cells := make([]string, len(s.Policy.Columns))
		for ci, c := range s.Policy.Columns {
			cells[ci] = renderCell(c, axes, r, results)
		}
		WriteRow(w, cells...)
	}
	for _, line := range s.Policy.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// baseParams assembles the effective base parameters for a run: spec
// params + quick overrides + policy placement + seed override + the
// per-site op table (under its reserved key, resolved by SiteOp).
func (s *Spec) baseParams(quick bool) Params {
	base := Params(s.Workload.Params).clone()
	if quick {
		for k, v := range s.Run.Quick {
			base[k] = v
		}
	}
	if s.Policy.Window != "" {
		base["window"] = s.Policy.Window
	}
	if s.Run.Seed != 0 {
		base["seed"] = s.Run.Seed
	}
	if len(s.Policy.Table) > 0 {
		t := make(map[string]string, len(s.Policy.Table))
		for k, v := range s.Policy.Table {
			t[k] = v
		}
		base[siteTableKey] = t
	}
	return base
}

// gridRow is one resolved row of the sweep: the value index of each
// axis (for rendering), the ops the row runs, and the machine and
// workload parameters every one of those runs uses.
type gridRow struct {
	idx     []int
	ops     []string
	machine machineChoice
	params  Params
}

// grid resolves every row of the sweep in order; the first axis varies
// slowest.
func (s *Spec) grid(axes []Axis, base Params) []gridRow {
	var rows []gridRow
	idx := make([]int, len(axes))
	for {
		r := gridRow{
			idx:     append([]int(nil), idx...),
			ops:     s.Policy.Ops,
			machine: machineChoice{preset: s.Machine.Preset, devices: s.Machine.Devices},
			params:  base.clone(),
		}
		for ai, a := range axes {
			v := a.Values[idx[ai]]
			switch {
			case a.Param == "machine":
				r.machine.preset = v.(string)
			case a.Param == "op":
				r.ops = []string{v.(string)}
			case strings.HasPrefix(a.Param, configAxis):
				if r.machine.fields == nil {
					r.machine.fields = map[string]any{}
				}
				r.machine.fields[strings.TrimPrefix(a.Param, configAxis)] = v
			case strings.HasPrefix(a.Param, devicesAxis):
				win, key, _ := strings.Cut(strings.TrimPrefix(a.Param, devicesAxis), ".")
				r.machine.devices = withDeviceParam(r.machine.devices, win, key, v)
			default:
				r.params[a.Param] = v
			}
		}
		rows = append(rows, r)

		i := len(axes) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return rows
		}
	}
}

// runPoint runs one grid point: it builds the point's machine, attaches
// the run's ops counter and observer, runs the workload — through its
// phased path, forking the warmup from the context's checkpoint view,
// when it declares one — and publishes the machine's retired ops once
// the run is over. It is the only place a spec run attaches its ops
// counter.
func (s *Spec) runPoint(ctx context.Context, wl Workload, mc machineChoice, op string, p Params) (Metrics, error) {
	m, err := s.buildMachine(mc)
	if err != nil {
		return nil, err
	}
	m.AttachOps(ctx)
	defer m.FlushOps()
	if obs := observerFrom(ctx); obs != nil {
		obs(m)
	}
	var metrics Metrics
	if view := checkpoint.FromContext(ctx); view != nil && wl.RunPhased != nil && !s.Run.ColdStart {
		key := warmKey(checkpoint.Build(), wl, m.ConfigHash(), p)
		metrics, err = wl.RunPhased(m, op, p, phaseControl(ctx, view, key))
	} else {
		metrics, err = wl.Run(m, op, p)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s, op %s: %w", wl.Name, op, err)
	}
	return metrics, nil
}

func renderCell(c Column, axes []Axis, r gridRow, results map[string]Metrics) string {
	if c.Axis != "" {
		for ai, a := range axes {
			if a.Param != c.Axis {
				continue
			}
			switch {
			case len(c.Labels) > 0:
				return c.Labels[r.idx[ai]]
			case len(a.Labels) > 0:
				return a.Labels[r.idx[ai]]
			}
			return FormatCell(c.Format, a.Values[r.idx[ai]])
		}
		return "?"
	}
	op := c.Op
	if op == "" && len(r.ops) == 1 {
		op = r.ops[0] // "op" axis: the row's single run
	}
	num := results[op][c.Metric]
	if c.DenOp != "" {
		den := c.DenMetric
		if den == "" {
			den = c.Metric
		}
		return FormatCell(c.Format, num/results[c.DenOp][den])
	}
	return FormatCell(c.Format, num)
}

// FormatCell renders one table value in a named column format:
//
//	plain  fmt.Sprint(v)
//	bytes  units.Bytes (value must be a non-negative integer)
//	f0/f1/f2  %.0f / %.1f / %.2f
//	x2     %.2fx (ratio)
//	pct    %+.1f%% of (ratio-1)*100
//	cyc0   %.0f cyc
//	drop0  -%.0f%% of 100*(1-ratio)
//	mops   %.2fM/s of v/1e6
//	mcyc   %.1f of v/1e6 (cycles in millions)
func FormatCell(format string, v any) string {
	f, isNum := asFloat(v)
	switch format {
	case "", "plain":
		return fmt.Sprint(v)
	case "bytes":
		if !isNum {
			return fmt.Sprint(v)
		}
		return units.Bytes(uint64(f))
	case "f0":
		return fmt.Sprintf("%.0f", f)
	case "f1":
		return fmt.Sprintf("%.1f", f)
	case "f2":
		return fmt.Sprintf("%.2f", f)
	case "x2":
		return fmt.Sprintf("%.2fx", f)
	case "pct":
		return fmt.Sprintf("%+.1f%%", (f-1)*100)
	case "cyc0":
		return fmt.Sprintf("%.0f cyc", f)
	case "drop0":
		return fmt.Sprintf("-%.0f%%", 100*(1-f))
	case "mops":
		return fmt.Sprintf("%.2fM/s", f/1e6)
	case "mcyc":
		return fmt.Sprintf("%.1f", f/1e6)
	}
	return fmt.Sprint(v)
}

// WriteRow prints one fixed-width table line ("%12s" cells, two-space
// separators): the header and every data row of every experiment
// table use this layout.
func WriteRow(w io.Writer, cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
}
