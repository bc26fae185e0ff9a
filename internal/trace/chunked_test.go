package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"prestores/internal/sim"
)

// recordMany records about count store/load/fence ops across two
// functions and two cores, in chunks of chunkRecords, so the encoding
// exercises fn-table deltas and core masks.
func recordMany(t *testing.T, count, chunkRecords int) recorded {
	t.Helper()
	return record(t, chunkRecords, func(m *sim.Machine) {
		c0, c1 := m.Core(0), m.Core(1)
		c0.PushFunc("writer")
		c1.PushFunc("reader")
		payload := make([]byte, 64)
		for i := 0; i < count/2; i++ {
			c0.Write(1<<40+uint64(i)*64, payload)
			c1.Read(1<<40+uint64(i)*64, payload)
			if i%17 == 0 {
				c0.Fence()
			}
		}
		c0.PopFunc()
		c1.PopFunc()
	})
}

func flatten(t *testing.T, cr *ChunkReader) (recs []Record, fns []string, chunks int) {
	t.Helper()
	for {
		c, err := cr.Next()
		if err == io.EOF {
			return recs, fns, chunks
		}
		if err != nil {
			t.Fatalf("chunk %d: %v", chunks, err)
		}
		if c.Index != chunks {
			t.Fatalf("chunk index %d, want %d", c.Index, chunks)
		}
		for _, r := range c.Records {
			recs = append(recs, r)
			fns = append(fns, c.FuncName(r.Fn))
		}
		chunks++
	}
}

func compareReplay(t *testing.T, want recorded, recs []Record, fns []string) {
	t.Helper()
	wrecs, wfns := want.recs, want.fns
	if len(wrecs) != len(recs) {
		t.Fatalf("got %d records, want %d", len(recs), len(wrecs))
	}
	for i := range wrecs {
		// Fn ids are the writer's interning; compare everything else
		// plus the name.
		a, b := wrecs[i], recs[i]
		a.Fn, b.Fn = 0, 0
		if a != b || wfns[i] != fns[i] {
			t.Fatalf("record %d mismatch: %+v (%q) vs %+v (%q)", i, wrecs[i], wfns[i], recs[i], fns[i])
		}
	}
}

func TestWriterChunkReaderRoundtrip(t *testing.T) {
	rec := recordMany(t, 1000, 64)
	cr, err := NewChunkReader(bytes.NewReader(rec.data))
	if err != nil {
		t.Fatal(err)
	}
	if cr.ChunkRecords() != 64 {
		t.Fatalf("chunk target %d, want 64", cr.ChunkRecords())
	}
	recs, fns, chunks := flatten(t, cr)
	if want := (len(rec.recs) + 63) / 64; chunks != want {
		t.Fatalf("read %d chunks, want %d", chunks, want)
	}
	compareReplay(t, rec, recs, fns)
	// A drained reader keeps returning io.EOF.
	if _, err := cr.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next: %v", err)
	}
}

func TestDecodeReadsChunked(t *testing.T) {
	rec := recordMany(t, 500, 100)
	got := mustDecode(t, rec.data)
	var recs []Record
	var fns []string
	got.Replay(func(r Record, fn string) { recs = append(recs, r); fns = append(fns, fn) })
	compareReplay(t, rec, recs, fns)
}

// v1Header is the start of a trace in the retired whole-buffer format:
// magic "PSTR", one interned name, no records.
func v1Header() []byte {
	return []byte{'R', 'T', 'S', 'P', 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'f'}
}

func TestChunkReaderRejectsV1(t *testing.T) {
	if _, err := NewChunkReader(bytes.NewReader(v1Header())); err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("chunk reader on a v1 trace: %v", err)
	}
	if _, err := Decode(bytes.NewReader(v1Header())); err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("Decode of a v1 trace: %v", err)
	}
}

func TestWriterBoundedBuffer(t *testing.T) {
	w := NewWriter(io.Discard, WriterOptions{ChunkRecords: 32})
	for i := 0; i < 32*16; i++ {
		if err := w.Append(Record{Addr: uint64(i)}, "fn"); err != nil {
			t.Fatal(err)
		}
		// The in-memory record buffer never exceeds one chunk: chunks
		// are flushed as they fill, keeping recording RSS flat.
		if len(w.recs) > 32 || cap(w.recs) > 32 {
			t.Fatalf("buffered %d records (cap %d) with chunk target 32", len(w.recs), cap(w.recs))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 32*16 || w.Chunks() != 16 {
		t.Fatalf("wrote %d records in %d chunks", w.Records(), w.Chunks())
	}
}

func TestWriterEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Next(); err != io.EOF {
		t.Fatalf("empty trace Next: %v", err)
	}
	if tb, err := Decode(bytes.NewReader(buf.Bytes())); err != nil || tb.Len() != 0 {
		t.Fatalf("Decode empty v2: %v, %d records", err, tb.Len())
	}
}

func TestWriterFlushWithoutClose(t *testing.T) {
	// A writer that never reached Close (crashed recorder) leaves a
	// footer-less file whose flushed chunks are still readable.
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkRecords: 8})
	for i := 0; i < 20; i++ {
		if err := w.Append(Record{Addr: uint64(i)}, "fn"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, chunks := flatten(t, cr)
	if len(recs) != 20 || chunks != 3 {
		t.Fatalf("read %d records in %d chunks, want 20 in 3", len(recs), chunks)
	}
}

func TestStandaloneChunkRoundtrip(t *testing.T) {
	cr, err := NewChunkReader(bytes.NewReader(recordMany(t, 200, 64).data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var one bytes.Buffer
		if err := EncodeChunk(&one, c); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeChunk(bytes.NewReader(one.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != c.Index || len(got.Records) != len(c.Records) ||
			len(got.Funcs) != len(c.Funcs) || got.CoreMask != c.CoreMask || got.MaxCore != c.MaxCore {
			t.Fatalf("standalone chunk mismatch: %+v vs %+v", got.Index, c.Index)
		}
		for i := range c.Records {
			if got.Records[i] != c.Records[i] {
				t.Fatalf("record %d mismatch", i)
			}
		}
	}
}

func TestDecodeRejectsCorruptFnID(t *testing.T) {
	// Patch the single record's fn id past the table: the record
	// starts after the chunk header and the (4+1)B name entry; its fn
	// id is at +19.
	var v2 bytes.Buffer
	w := NewWriter(&v2, WriterOptions{ChunkRecords: 16})
	if err := w.Append(Record{Addr: 64}, "f"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := v2.Bytes()
	raw[fileHeaderSize+chunkHeaderSize+5+19] = 0xff
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("v2 decode accepted out-of-table fn id")
	}
}

func TestDecodeRejectsOversizedFnTable(t *testing.T) {
	// Patch the first chunk's count of new function names.
	raw := recordSome(t).data
	binary.LittleEndian.PutUint32(raw[fileHeaderSize+16:], 0xffffffff)
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("decode accepted an oversized function table")
	}
	cr, err := NewChunkReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Next(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("chunk reader on an oversized function table: %v", err)
	}
}

func TestChunkReaderTruncated(t *testing.T) {
	// Cut inside a chunk payload: the reader must error, not succeed.
	trunc := recordMany(t, 300, 50).data[:fileHeaderSize+chunkHeaderSize+10]
	cr, err := NewChunkReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated chunk read: %v", err)
	}
}
