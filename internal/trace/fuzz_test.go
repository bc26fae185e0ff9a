package trace

import (
	"bytes"
	"testing"

	"prestores/internal/sim"
)

// encode writes records, each with its function name, through a Writer
// with the given chunk target.
func encode(t testing.TB, chunkRecords int, recs []Record, fns []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkRecords: chunkRecords})
	for i, r := range recs {
		if err := w.Append(r, fns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reencode writes a decoded buffer back through a Writer.
func reencode(t *testing.T, tb *Buffer) []byte {
	t.Helper()
	var recs []Record
	var fns []string
	tb.Replay(func(r Record, fn string) { recs = append(recs, r); fns = append(fns, fn) })
	return encode(t, 0, recs, fns)
}

// FuzzDecode throws arbitrary bytes at the trace decoder: it must
// return an error or a valid buffer, never panic or hang.
func FuzzDecode(f *testing.F) {
	// Seed with real encodings.
	recs := []Record{{Core: 1, Addr: 64, Size: 8, Instr: 3, Cost: 5}}
	fns := []string{"f"}
	f.Add(encode(f, 0, recs, fns))
	f.Add([]byte{})
	// The retired v1 magic, which must be rejected.
	f.Add([]byte("PSTR"))
	f.Add(encode(f, 1, recs, fns))
	f.Add([]byte("PST2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, []byte("PST2")) {
			t.Fatalf("decoded input without the PST2 magic: %q", data[:min(len(data), 4)])
		}
		// A successful decode must replay, re-encode and decode again
		// to the same records.
		count := 0
		tb.Replay(func(Record, string) { count++ })
		if count != tb.Len() {
			t.Fatalf("replay visited %d of %d records", count, tb.Len())
		}
		again, err := Decode(bytes.NewReader(reencode(t, tb)))
		if err != nil {
			t.Fatalf("decode of re-encoded trace failed: %v", err)
		}
		if again.Len() != tb.Len() {
			t.Fatalf("re-encoded trace decodes to %d of %d records", again.Len(), tb.Len())
		}
	})
}

// FuzzChunkReader throws arbitrary bytes at the streaming chunk
// reader: it must return errors or well-formed chunks, never panic.
func FuzzChunkReader(f *testing.F) {
	v2 := encode(f, 1, []Record{
		{Core: 1, Addr: 64, Size: 8, Instr: 3, Cost: 5},
		{Core: 2, Addr: 128, Size: 8, Instr: 4, Cost: 6},
	}, []string{"f", "g"})
	f.Add(v1Header())
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	var standalone bytes.Buffer
	cr0, err := NewChunkReader(bytes.NewReader(v2))
	if err != nil {
		f.Fatal(err)
	}
	c0, err := cr0.Next()
	if err != nil {
		f.Fatal(err)
	}
	if err := EncodeChunk(&standalone, c0); err != nil {
		f.Fatal(err)
	}
	f.Add(standalone.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := NewChunkReader(bytes.NewReader(data))
		if err == nil {
			for i := 0; i < 1<<12; i++ {
				c, err := cr.Next()
				if err != nil {
					break
				}
				// Every delivered record must resolve in the table.
				for _, r := range c.Records {
					if int(r.Fn) >= len(c.Funcs) {
						t.Fatalf("chunk %d: fn id %d outside table of %d", c.Index, r.Fn, len(c.Funcs))
					}
				}
				// A delivered chunk must survive the standalone codec.
				var buf bytes.Buffer
				if err := EncodeChunk(&buf, c); err != nil {
					t.Fatalf("re-encode of decoded chunk: %v", err)
				}
				if _, err := DecodeChunk(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("re-decode of re-encoded chunk: %v", err)
				}
			}
		}
		_, _ = DecodeChunk(bytes.NewReader(data))
	})
}

// FuzzRoundtrip checks that any record content survives a Writer and
// Decode, and a second encode/decode of the decoded buffer.
func FuzzRoundtrip(f *testing.F) {
	f.Add(uint16(0), uint8(1), uint64(64), uint64(8), uint64(10), uint64(4), "fn")
	f.Fuzz(func(t *testing.T, core uint16, kind uint8, addr, size, instr, cost uint64, fn string) {
		orig := Record{Core: core, Kind: sim.OpKind(kind), Addr: addr, Size: size, Instr: instr, Cost: cost}
		got, err := Decode(bytes.NewReader(encode(t, 0, []Record{orig}, []string{fn})))
		if err != nil {
			t.Fatal(err)
		}
		again, err := Decode(bytes.NewReader(reencode(t, got)))
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range []*Buffer{got, again} {
			if tb.Len() != 1 {
				t.Fatalf("decoded %d records, want 1", tb.Len())
			}
			tb.Replay(func(r Record, n string) {
				if r != orig || n != fn {
					t.Fatalf("roundtrip mismatch: %+v/%q vs %+v/%q", orig, fn, r, n)
				}
			})
		}
	})
}
