package bench

import (
	"bytes"
	"context"
	"testing"

	"prestores/internal/scenario"
)

// TestSpecIDsRegistered pins which named experiments are spec-driven.
func TestSpecIDsRegistered(t *testing.T) {
	want := []string{
		"ablate-dir", "ablate-drain", "ablate-llc", "ablate-pmembuf",
		"ext-cxlssd", "ext-prefetch", "ext-seqlog",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig3", "fig5", "fig7", "fig8",
		"kv-threads", "skipvsclean", "x9", "ycsb-mixes",
	}
	got := SpecIDs()
	if len(got) != len(want) {
		t.Fatalf("SpecIDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SpecIDs() = %v, want %v", got, want)
		}
		if _, ok := Lookup(want[i]); !ok {
			t.Errorf("spec %s has no registered experiment", want[i])
		}
	}
}

// dumpRunIDs is the cheap cross-section whose dumped specs are also
// run through RunSpec (machine and config axes, axis labels). The other
// specs' runs are covered by the canonical round trip — a registered
// spec is its decoded dump — and their output by the golden pins.
var dumpRunIDs = map[string]bool{"ablate-dir": true, "ablate-drain": true, "x9": true}

// TestDumpedSpecByteIdentical checks every spec-driven experiment's
// dump (canonical JSON, re-decoded) against its registry entry: the
// dump must re-encode to the same bytes, and for dumpRunIDs RunSpec on
// it must print exactly what the registry entry prints — the
// acceptance oracle for the declarative refactor.
func TestDumpedSpecByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, id := range SpecIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec, ok := SpecFor(id)
			if !ok {
				t.Fatalf("SpecFor(%q) missing", id)
			}
			data, err := spec.Canonical()
			if err != nil {
				t.Fatalf("canonical: %v", err)
			}
			decoded, err := scenario.Decode(data)
			if err != nil {
				t.Fatalf("decode dumped spec: %v\njson: %s", err, data)
			}
			again, err := decoded.Canonical()
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("dump does not round-trip (%v):\n%s\n%s", err, data, again)
			}
			if !dumpRunIDs[id] || testing.Short() {
				return
			}
			e, _ := Lookup(id)
			var legacy, viaSpec bytes.Buffer
			if err := RunOne(ctx, &legacy, e, true); err != nil {
				t.Fatalf("RunOne: %v", err)
			}
			if err := RunSpec(ctx, &viaSpec, decoded, true); err != nil {
				t.Fatalf("RunSpec: %v", err)
			}
			if legacy.String() != viaSpec.String() {
				t.Errorf("output differs:\n--- registry ---\n%s\n--- dumped spec ---\n%s",
					legacy.String(), viaSpec.String())
			}
		})
	}
}
