package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"prestores/internal/obs"
	"prestores/internal/telemetry"
)

// writeTraceArtifacts writes a traced run's span timeline (Chrome
// trace-event JSON) and its per-layer table, both stamped with the
// machine fingerprint, under o.out.
func writeTraceArtifacts(o opts, fp machineFingerprint, s *summary, ms map[string]metric) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	var spans []obs.Span
	for _, r := range s.reps {
		spans = append(spans, r.Spans...)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return err
	}
	if err := telemetry.WriteSpanTimeline(f, spans, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := struct {
		Fingerprint machineFingerprint `json:"fingerprint"`
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		Spans       int                `json:"spans"`
		Metrics     map[string]metric  `json:"metrics"`
	}{fp, o.workload, o.seed, len(spans), ms}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s.spans.json (%d spans) and %s.layers.json\n", base, len(spans), base)
	return nil
}
