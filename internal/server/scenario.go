package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"prestores/internal/bench"
	"prestores/internal/memdev"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/telemetry"
	"prestores/internal/workloads/kv"
)

// scenarioSpec is the POST /v1/scenarios body: a full declarative
// scenario spec (see internal/scenario) plus the quick flag.
type scenarioSpec struct {
	Spec  json.RawMessage `json:"spec"`
	Quick bool            `json:"quick"`

	sp scenario.Spec // Spec decoded, set by normalize
}

// normalize replaces Spec with its canonical bytes rather than the
// client's formatting, so semantically identical submits — reordered
// keys, extra whitespace, spelled-out defaults — share one key.
func (b *scenarioSpec) normalize() error {
	if len(b.Spec) == 0 {
		return errors.New("spec: required (a scenario spec object; GET /v1/registry lists the building blocks)")
	}
	sp, err := scenario.Decode(b.Spec)
	if err != nil {
		return fmt.Errorf("invalid scenario spec: %v", err)
	}
	canon, err := sp.Canonical()
	if err != nil {
		return fmt.Errorf("invalid scenario spec: %v", err)
	}
	b.Spec, b.sp = canon, sp
	return nil
}

func (b *scenarioSpec) run(*Server) (work, error) { return scenarioWork(b.sp, b.Quick), nil }

// scenarioWork is a scenario job: the declarative grid runner, with
// rows streaming as grid points finish. A spec with a
// telemetry block gets a per-job recorder attached (via the context
// observer, so concurrent jobs never see each other's machines); the
// recorded timeline and line report become job artifacts served from
// GET /v1/jobs/{id}/timeline and .../linereport.
func scenarioWork(sp scenario.Spec, quick bool) work {
	name := sp.Name
	if name == "" {
		name = "custom"
	}
	title := sp.Title
	if title == "" {
		title = "custom scenario"
	}
	return work{"scenario/" + name, title,
		func(ctx context.Context, j *job, out io.Writer) error {
			t := sp.Telemetry
			if t == nil {
				return bench.RunSpec(ctx, out, sp, quick)
			}
			rec := telemetry.New(telemetry.Config{
				Timeline:    t.Timeline,
				LineReport:  t.LineReport,
				MaxEvents:   t.MaxEvents,
				BucketBytes: t.BucketBytes,
			})
			err := bench.RunSpec(scenario.WithObserver(ctx, rec.Attach), out, sp, quick)
			if t.Timeline {
				var b bytes.Buffer
				if werr := rec.WriteTimeline(&b); werr == nil {
					j.setArtifact("timeline", b.Bytes())
				}
			}
			if t.LineReport {
				rep := rec.LineReport(256)
				var b bytes.Buffer
				if werr := rep.WriteJSON(&b); werr == nil {
					j.setArtifact("linereport", b.Bytes())
				}
				fmt.Fprintln(out)
				rep.WriteText(out)
			}
			return err
		}}
}

// registryDevices describes the device-kind registry: the kinds a
// machine.devices patch (or a custom config) may instantiate and the
// parameter keys each accepts.
type registryDevices struct {
	Kinds  []string `json:"kinds"`
	Params []string `json:"params"`
}

// registryWorkload is one workload's registry listing.
type registryWorkload struct {
	Name        string              `json:"name"`
	Description string              `json:"description,omitempty"`
	Params      []scenario.ParamDef `json:"params,omitempty"`
	Ops         []string            `json:"ops"`
	Metrics     []string            `json:"metrics"`
	// Sites lists the workload's named pre-store call sites — the
	// dimensions a policy.table (and the autotuner) can steer per-site.
	Sites []string `json:"sites,omitempty"`
}

// registryResponse is the GET /v1/registry body: every building block a
// scenario spec may reference.
type registryResponse struct {
	Machines  []sim.Preset       `json:"machines"`
	Devices   registryDevices    `json:"devices"`
	Workloads []registryWorkload `json:"workloads"`
	Stores    []string           `json:"stores"`
	Formats   []string           `json:"formats"`
	Specs     []string           `json:"spec_experiments"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	resp := registryResponse{
		Machines: sim.Presets(),
		Devices:  registryDevices{Kinds: memdev.Kinds(), Params: memdev.ParamNames()},
		Stores:   kv.Stores(),
		Formats:  scenario.Formats(),
		Specs:    bench.SpecIDs(),
	}
	for _, wl := range scenario.Workloads() {
		resp.Workloads = append(resp.Workloads, registryWorkload{
			Name:        wl.Name,
			Description: wl.Description,
			Params:      wl.Params,
			Ops:         wl.Ops,
			Metrics:     wl.MetricNames,
			Sites:       wl.Sites,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}
