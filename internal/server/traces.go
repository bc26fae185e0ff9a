package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"prestores/internal/trace"
)

// DefaultTraceQuota bounds the content-addressed trace store (stored
// traces plus open upload buffers) when Config.TraceQuotaBytes is 0.
const DefaultTraceQuota = 1 << 30

// maxUploadPart bounds one upload request body; bigger traces arrive
// as multiple resumable parts.
const maxUploadPart = 64 << 20

// maxOpenUploads bounds concurrently open resumable uploads.
const maxOpenUploads = 64

// TraceInfo describes one stored trace on the wire.
type TraceInfo struct {
	Address string    `json:"address"`
	Bytes   int64     `json:"bytes"`
	Chunks  int       `json:"chunks"`
	Records uint64    `json:"records"`
	Created time.Time `json:"created"`
}

type storedTrace struct {
	info TraceInfo
	data []byte
}

type upload struct {
	id      string
	buf     []byte
	created time.Time
}

// traceStore is the quota-bounded, content-addressed home of uploaded
// recordings. Addresses are the SHA-256 of the trace bytes, so
// re-uploading an identical recording lands on the same entry — and
// the analysis cache key derived from the address stays stable.
type traceStore struct {
	mu      sync.Mutex
	quota   int64
	used    int64 // stored traces + open upload buffers
	traces  map[string]*storedTrace
	uploads map[string]*upload
	useq    uint64
}

func newTraceStore(quota int64) *traceStore {
	if quota <= 0 {
		quota = DefaultTraceQuota
	}
	return &traceStore{
		quota:   quota,
		traces:  make(map[string]*storedTrace),
		uploads: make(map[string]*upload),
	}
}

func traceAddress(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validate walks every chunk of the encoded trace (v1 or v2) so a
// corrupt upload is rejected at commit time, not at analysis time.
func validateTrace(data []byte) (chunks int, records uint64, err error) {
	cr, err := trace.NewChunkReader(bytes.NewReader(data))
	if err != nil {
		return 0, 0, err
	}
	for {
		c, err := cr.Next()
		if err == io.EOF {
			return chunks, records, nil
		}
		if err != nil {
			return 0, 0, err
		}
		chunks++
		records += uint64(len(c.Records))
	}
}

type storeError struct {
	code int
	msg  string
}

func (e *storeError) Error() string { return e.msg }

func storeErrf(code int, format string, args ...any) *storeError {
	return &storeError{code: code, msg: fmt.Sprintf(format, args...)}
}

// put stores a complete encoded trace, validating it first.
func (ts *traceStore) put(data []byte) (TraceInfo, error) {
	chunks, records, err := validateTrace(data)
	if err != nil {
		return TraceInfo{}, storeErrf(http.StatusBadRequest, "invalid trace: %v", err)
	}
	addr := traceAddress(data)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if st, ok := ts.traces[addr]; ok {
		return st.info, nil
	}
	if ts.used+int64(len(data)) > ts.quota {
		return TraceInfo{}, storeErrf(http.StatusRequestEntityTooLarge,
			"trace store quota exceeded (%d of %d bytes used)", ts.used, ts.quota)
	}
	st := &storedTrace{
		info: TraceInfo{
			Address: addr, Bytes: int64(len(data)),
			Chunks: chunks, Records: records, Created: time.Now().UTC(),
		},
		data: data,
	}
	ts.traces[addr] = st
	ts.used += int64(len(data))
	return st.info, nil
}

func (ts *traceStore) begin() (string, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.uploads) >= maxOpenUploads {
		return "", storeErrf(http.StatusTooManyRequests,
			"too many open uploads (%d); commit or abort one first", len(ts.uploads))
	}
	ts.useq++
	id := fmt.Sprintf("up-%d", ts.useq)
	ts.uploads[id] = &upload{id: id, created: time.Now().UTC()}
	return id, nil
}

// appendPart appends data at offset. A stale retry whose bytes are
// already present is acknowledged idempotently; any other offset
// mismatch returns 409 with the current offset so the client can
// resume exactly where the server is.
func (ts *traceStore) appendPart(id string, offset int64, data []byte) (int64, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	up, ok := ts.uploads[id]
	if !ok {
		return 0, storeErrf(http.StatusNotFound, "unknown upload %q", id)
	}
	cur := int64(len(up.buf))
	if offset != cur {
		if offset < cur && offset+int64(len(data)) <= cur {
			return cur, nil // duplicate of bytes we already have
		}
		return cur, storeErrf(http.StatusConflict,
			"upload %s is at offset %d, not %d; resume from %d", id, cur, offset, cur)
	}
	if ts.used+int64(len(data)) > ts.quota {
		return cur, storeErrf(http.StatusRequestEntityTooLarge,
			"trace store quota exceeded (%d of %d bytes used)", ts.used, ts.quota)
	}
	up.buf = append(up.buf, data...)
	ts.used += int64(len(data))
	return int64(len(up.buf)), nil
}

// commit validates the assembled upload and moves it into the store.
func (ts *traceStore) commit(id string) (TraceInfo, error) {
	ts.mu.Lock()
	up, ok := ts.uploads[id]
	if ok {
		delete(ts.uploads, id)
		ts.used -= int64(len(up.buf))
	}
	ts.mu.Unlock()
	if !ok {
		return TraceInfo{}, storeErrf(http.StatusNotFound, "unknown upload %q", id)
	}
	return ts.put(up.buf)
}

func (ts *traceStore) abort(id string) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	up, ok := ts.uploads[id]
	if !ok {
		return storeErrf(http.StatusNotFound, "unknown upload %q", id)
	}
	delete(ts.uploads, id)
	ts.used -= int64(len(up.buf))
	return nil
}

func (ts *traceStore) get(addr string) ([]byte, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.traces[addr]
	if !ok {
		return nil, false
	}
	return st.data, true
}

func (ts *traceStore) info(addr string) (TraceInfo, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.traces[addr]
	if !ok {
		return TraceInfo{}, false
	}
	return st.info, true
}

func (ts *traceStore) remove(addr string) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	st, ok := ts.traces[addr]
	if !ok {
		return false
	}
	delete(ts.traces, addr)
	ts.used -= int64(len(st.data))
	return true
}

func (ts *traceStore) list() []TraceInfo {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceInfo, 0, len(ts.traces))
	for _, st := range ts.traces {
		out = append(out, st.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Address < out[j].Address })
	return out
}

func (ts *traceStore) usage() (used int64, stored int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.used, len(ts.traces)
}

// ---- HTTP handlers ----

func writeStoreError(w http.ResponseWriter, err error) {
	if se, ok := err.(*storeError); ok {
		WriteError(w, se.code, "%s", se.msg)
		return
	}
	WriteError(w, http.StatusInternalServerError, "%v", err)
}

func readPart(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxUploadPart+1))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	if len(data) > maxUploadPart {
		WriteError(w, http.StatusRequestEntityTooLarge,
			"upload part exceeds %d bytes; split it into resumable parts", maxUploadPart)
		return nil, false
	}
	return data, true
}

// handleTracePost ingests a recording. The plain form takes the whole
// encoded trace as the body; ?resume=1 opens a resumable upload whose
// parts arrive via PUT /v1/traces/uploads/{id}?offset=N, mirroring the
// offset-resume contract of the job streams.
func (s *Server) handleTracePost(w http.ResponseWriter, r *http.Request) {
	if v := r.URL.Query().Get("resume"); v == "1" || v == "true" {
		id, err := s.traces.begin()
		if err != nil {
			writeStoreError(w, err)
			return
		}
		WriteJSON(w, http.StatusCreated, UploadStatus{Upload: id})
		return
	}
	data, ok := readPart(w, r)
	if !ok {
		return
	}
	info, err := s.traces.put(data)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	s.m.traceUploads.Inc()
	s.m.traceUploadBytes.Add(uint64(info.Bytes))
	WriteJSON(w, http.StatusCreated, info)
}

func (s *Server) handleTraceUploadPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	offset, err := Offset(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, ok := readPart(w, r)
	if !ok {
		return
	}
	newOff, err := s.traces.appendPart(id, offset, data)
	if err != nil {
		if se, ok := err.(*storeError); ok && se.code == http.StatusConflict {
			// 409 carries the current offset so the client resumes
			// without a second round trip.
			WriteJSON(w, http.StatusConflict, UploadStatus{Upload: id, Offset: newOff, Error: se.msg})
			return
		}
		writeStoreError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, UploadStatus{Upload: id, Offset: newOff})
}

func (s *Server) handleTraceUploadCommit(w http.ResponseWriter, r *http.Request) {
	info, err := s.traces.commit(r.PathValue("id"))
	if err != nil {
		writeStoreError(w, err)
		return
	}
	s.m.traceUploads.Inc()
	s.m.traceUploadBytes.Add(uint64(info.Bytes))
	WriteJSON(w, http.StatusCreated, info)
}

func (s *Server) handleTraceUploadAbort(w http.ResponseWriter, r *http.Request) {
	if err := s.traces.abort(r.PathValue("id")); err != nil {
		writeStoreError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "aborted"})
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.traces.list())
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("address")
	data, ok := s.traces.get(addr)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown trace %q; GET /v1/traces lists them", addr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (s *Server) handleTraceDelete(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("address")
	if !s.traces.remove(addr) {
		WriteError(w, http.StatusNotFound, "unknown trace %q", addr)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}
