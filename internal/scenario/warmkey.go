package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"prestores/internal/checkpoint"
	"prestores/internal/obs"
	"prestores/internal/sim"
)

// warmKey is the content-addressed identity of a workload's post-warmup
// machine state: the build, the workload name, the machine's config
// hash and the effective values of the workload's declared warm
// parameters. Nothing about the spec that asked for the run enters the
// key, so any two grid points — of one sweep, of two experiments, or of
// a named experiment and its dumped spec — that agree on those inputs
// fork from the same checkpoint. Values hash in their JSON form, so a
// spec built in Go (ints) and its decoded dump (float64s) agree.
func warmKey(build string, wl Workload, configHash string, p Params) string {
	h := sha256.New()
	fmt.Fprintf(h, "warm\x00%s\x00%s\x00%s", build, wl.Name, configHash)
	names := append([]string(nil), wl.WarmParams...)
	sort.Strings(names)
	for _, n := range names {
		v, _ := json.Marshal(p[n]) // scalars; validation rejects anything else
		fmt.Fprintf(h, "\x00%s=%s", n, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// phaseControl wires a checkpoint view into a sim.PhaseControl for one
// grid point: restore forks the machine from the memoized post-warmup
// state under key; save encodes and stores it. Stale entries (build or
// config skew) count as misses; a restore that fails after the header
// matched panics rather than silently re-running the warmup on a
// half-mutated machine.
func phaseControl(ctx context.Context, view *checkpoint.View, key string) *sim.PhaseControl {
	return &sim.PhaseControl{
		Restore: func(m *sim.Machine) ([]byte, bool) {
			// The lookup and restore are separate spans: a miss shows a
			// lookup followed by the full cold warmup, a hit shows the
			// restore replacing it — the timing difference checkpointing
			// exists to create, visible per job.
			lctx, lookup := obs.Start(ctx, "checkpoint.lookup", obs.KV("key", key[:12]))
			data, ok := view.Get(key)
			var ck *sim.Checkpoint
			if ok {
				var err error
				ck, err = sim.DecodeCheckpoint(data)
				ok = err == nil && ck.Build == checkpoint.Build() && ck.ConfigHash == m.ConfigHash()
			}
			lookup.SetAttr("hit", fmt.Sprint(ok))
			lookup.End()
			if !ok {
				return nil, false
			}
			_, restore := obs.Start(lctx, "checkpoint.restore", obs.KV("key", key[:12]))
			defer restore.End()
			if err := ck.Restore(m); err != nil {
				panic(fmt.Sprintf("checkpoint %s: restore failed: %v", key[:12], err))
			}
			return ck.Annex, true
		},
		Save: func(m *sim.Machine, annex []byte) {
			_, save := obs.Start(ctx, "checkpoint.save", obs.KV("key", key[:12]))
			defer save.End()
			ck, err := m.NewCheckpoint(checkpoint.Build(), annex)
			if err != nil {
				return // machine not snapshottable: later points load cold
			}
			view.Put(key, ck.Encode())
		},
	}
}
