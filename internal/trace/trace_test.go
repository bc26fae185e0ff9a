package trace

import (
	"bytes"
	"strings"
	"testing"

	"prestores/internal/sim"
)

// recorded is one run streamed through a Writer: its encoding, plus
// the records and function names the hook saw in order — the oracle
// the decoders are checked against. Fn ids are left zero: they are
// the writer's interning, not part of the recorded operation.
type recorded struct {
	data []byte
	recs []Record
	fns  []string
}

// record runs body on a fresh machine A, streaming every operation
// into a Writer with the given chunk target.
func record(t *testing.T, chunkRecords int, body func(m *sim.Machine)) recorded {
	t.Helper()
	var rec recorded
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkRecords: chunkRecords})
	hook := w.Hook()
	m := sim.MachineA()
	m.SetHook(func(ev sim.Event, c *sim.Core) {
		hook(ev, c)
		rec.recs = append(rec.recs, Record{Core: uint16(ev.Core), Kind: ev.Kind, Addr: ev.Addr,
			Size: ev.Size, Instr: ev.Instr, Cost: ev.Cost})
		rec.fns = append(rec.fns, ev.Fn)
	})
	body(m)
	m.SetHook(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec.data = buf.Bytes()
	return rec
}

func recordSome(t *testing.T) recorded {
	t.Helper()
	return record(t, 0, func(m *sim.Machine) {
		c := m.Core(0)
		c.PushFunc("alpha")
		c.Write(1<<40, []byte{1, 2, 3})
		var buf [3]byte
		c.Read(1<<40, buf[:])
		c.PopFunc()
		c.PushFunc("beta")
		c.Fence()
		c.PopFunc()
	})
}

func mustDecode(t *testing.T, data []byte) *Buffer {
	t.Helper()
	b, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecording(t *testing.T) {
	b := mustDecode(t, recordSome(t).data)
	if b.Len() == 0 {
		t.Fatal("nothing recorded")
	}
	var kinds []sim.OpKind
	var fns []string
	b.Replay(func(r Record, fn string) {
		kinds = append(kinds, r.Kind)
		fns = append(fns, fn)
	})
	// Expect func-enter, store, load, func-exit, func-enter, fence, func-exit.
	wantKinds := []sim.OpKind{
		sim.OpFuncEnter, sim.OpStore, sim.OpLoad, sim.OpFuncExit,
		sim.OpFuncEnter, sim.OpFence, sim.OpFuncExit,
	}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("recorded %v", kinds)
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("record %d = %v, want %v", i, kinds[i], wantKinds[i])
		}
	}
	if fns[1] != "alpha" || fns[5] != "beta" {
		t.Fatalf("function attribution: %v", fns)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	rec := recordSome(t)
	got := mustDecode(t, rec.data)
	if got.Len() != len(rec.recs) {
		t.Fatalf("decoded %d records, want %d", got.Len(), len(rec.recs))
	}
	var recs []Record
	var fns []string
	got.Replay(func(r Record, fn string) { recs = append(recs, r); fns = append(fns, fn) })
	compareReplay(t, rec, recs, fns)
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	data := recordSome(t).data
	trunc := data[:len(data)/2]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestFuncNameUnknown(t *testing.T) {
	b := NewBuffer()
	if b.FuncName(42) != "?" {
		t.Fatal("unknown id did not map to ?")
	}
}

func TestTimeByFunction(t *testing.T) {
	rec := record(t, 16, func(m *sim.Machine) {
		c := m.Core(0)
		c.PushFunc("writer")
		for i := uint64(0); i < 200; i++ {
			c.Write(1<<40+i*4096, make([]byte, 256))
		}
		c.PopFunc()
		c.PushFunc("thinker")
		c.Compute(50)
		c.PopFunc()
	})
	rep, err := TimeByFunction(bytes.NewReader(rec.data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) < 2 {
		t.Fatalf("report has %d functions", len(rep))
	}
	if rep[0].Fn != "writer" {
		t.Fatalf("top function %q, want writer", rep[0].Fn)
	}
	if rep[0].StoreCyc == 0 || rep[0].TimeShare <= 0 {
		t.Fatalf("writer attribution: %+v", rep[0])
	}
	var total float64
	var ops uint64
	for _, ft := range rep {
		total += ft.TimeShare
		ops += ft.Ops
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("time shares sum to %v", total)
	}
	if ops != uint64(len(rec.recs)) {
		t.Fatalf("profile counts %d ops, recording has %d", ops, len(rec.recs))
	}
	// One header line plus one line per function.
	lines := strings.Split(strings.TrimSuffix(rep.Render(), "\n"), "\n")
	if len(lines) != len(rep)+1 || !strings.HasPrefix(lines[1], "writer ") {
		t.Fatalf("rendered profile:\n%s", rep.Render())
	}
}
