// Package trace records the simulator's operation stream — the
// equivalent of the Intel PIN instrumentation DirtBuster uses in its
// second step — and persists it for offline analysis.
//
// A Writer subscribes to a machine's hook and streams one compact
// record per operation to disk in chunks, interning function names, so
// an application can be traced once and analyzed many times, mirroring
// the paper's "intended usage ... executed offline, as an optimization
// pass". Analyses read the recording back chunk by chunk through a
// ChunkReader; Decode assembles a whole recording into an in-memory
// Buffer for the callers that want one.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"

	"prestores/internal/sim"
)

// Record is one traced operation.
type Record struct {
	Core  uint16
	Kind  sim.OpKind
	Addr  uint64
	Size  uint64
	Fn    uint32 // interned function id; see Buffer.FuncName
	Instr uint64 // issuing core's instruction counter
	Cost  uint64 // cycles the op advanced the issuing core
}

// Buffer is a whole recording held in memory, as Decode assembles it.
type Buffer struct {
	records []Record
	fnNames []string
}

// NewBuffer returns an empty trace buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Len returns the number of records.
func (b *Buffer) Len() int { return len(b.records) }

// FuncName resolves an interned function id.
func (b *Buffer) FuncName(id uint32) string {
	if int(id) < len(b.fnNames) {
		return b.fnNames[id]
	}
	return "?"
}

// Replay calls fn for every record in order.
func (b *Buffer) Replay(fn func(r Record, fnName string)) {
	for _, r := range b.records {
		fn(r, b.FuncName(r.Fn))
	}
}

// magicV1 opened the retired whole-buffer v1 format ("PSTR" as a
// little-endian word, so the file's first bytes read "RTSP"); readers
// recognize it only to reject it with a clear error.
const magicV1 = 0x50535452

// MaxFuncs bounds the interned function table. Real traces intern a
// handful of names; a corrupt header must not make a decoder allocate
// or index an unbounded table.
const MaxFuncs = 1 << 20

// maxNameLen bounds a single interned function name on the wire.
const maxNameLen = 1 << 16

// RecordSize is the fixed on-wire size of one encoded Record, shared
// by the chunk format and the Partial wire codec.
const RecordSize = 39

// PutRecord encodes r into b, which must be at least RecordSize bytes.
func PutRecord(b []byte, r Record) {
	binary.LittleEndian.PutUint16(b[0:], r.Core)
	b[2] = byte(r.Kind)
	binary.LittleEndian.PutUint64(b[3:], r.Addr)
	binary.LittleEndian.PutUint64(b[11:], r.Size)
	binary.LittleEndian.PutUint32(b[19:], r.Fn)
	binary.LittleEndian.PutUint64(b[23:], r.Instr)
	binary.LittleEndian.PutUint64(b[31:], r.Cost)
}

// GetRecord decodes a record from b, which must be at least RecordSize
// bytes.
func GetRecord(b []byte) Record {
	return Record{
		Core:  binary.LittleEndian.Uint16(b[0:]),
		Kind:  sim.OpKind(b[2]),
		Addr:  binary.LittleEndian.Uint64(b[3:]),
		Size:  binary.LittleEndian.Uint64(b[11:]),
		Fn:    binary.LittleEndian.Uint32(b[19:]),
		Instr: binary.LittleEndian.Uint64(b[23:]),
		Cost:  binary.LittleEndian.Uint64(b[31:]),
	}
}

func writeName(bw *bufio.Writer, name string) error {
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	_, err := bw.WriteString(name)
	return err
}

func readName(br *bufio.Reader) (string, error) {
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", fmt.Errorf("trace: function name length %d too large", n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		return "", err
	}
	return string(name), nil
}

// Decode reads a whole trace written by a Writer into one in-memory
// Buffer. Decoding fails on corrupt input, including records whose
// function id falls outside the interned table.
func Decode(r io.Reader) (*Buffer, error) {
	b := NewBuffer()
	err := EachChunk(r, func(c *Chunk) error {
		// Chunk tables are cumulative: the latest one covers every
		// id seen so far.
		b.fnNames = c.Funcs
		b.records = append(b.records, c.Records...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// FnTime is the per-function time attribution of a trace.
type FnTime struct {
	Fn        string
	Cycles    uint64 // total cycles attributed to the function's ops
	StoreCyc  uint64 // cycles in stores/NT stores/atomics
	LoadCyc   uint64
	Ops       uint64
	TimeShare float64 // fraction of the trace's total cycles
}

// FnTimes is a perf-report-style profile: functions by descending
// cycles.
type FnTimes []FnTime

// TimeByFunction streams the trace in r chunk by chunk and aggregates
// per-function cycle attribution.
func TimeByFunction(r io.Reader) (FnTimes, error) {
	agg := map[string]*FnTime{}
	var total uint64
	err := EachChunk(r, func(c *Chunk) error {
		for _, rec := range c.Records {
			fn := c.Funcs[rec.Fn]
			ft := agg[fn]
			if ft == nil {
				ft = &FnTime{Fn: fn}
				agg[fn] = ft
			}
			ft.Cycles += rec.Cost
			ft.Ops++
			total += rec.Cost
			switch rec.Kind {
			case sim.OpStore, sim.OpStoreNT, sim.OpAtomic:
				ft.StoreCyc += rec.Cost
			case sim.OpLoad:
				ft.LoadCyc += rec.Cost
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(FnTimes, 0, len(agg))
	for _, ft := range agg {
		if total > 0 {
			ft.TimeShare = float64(ft.Cycles) / float64(total)
		}
		out = append(out, *ft)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Fn < out[j].Fn
	})
	return out, nil
}

// Render formats the profile as a table, one function per line.
func (fs FnTimes) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %10s %8s %8s %8s\n", "function", "cycles", "time%", "store%", "ops")
	for _, ft := range fs {
		if ft.Fn == "" {
			ft.Fn = "(untagged)"
		}
		storePct := 0.0
		if ft.Cycles > 0 {
			storePct = 100 * float64(ft.StoreCyc) / float64(ft.Cycles)
		}
		fmt.Fprintf(&sb, "%-32s %10d %7.1f%% %7.1f%% %8d\n",
			ft.Fn, ft.Cycles, ft.TimeShare*100, storePct, ft.Ops)
	}
	return sb.String()
}
