package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"

	"humancomp/internal/store"
)

// markEvery is the spacing of a Source's offset marks: a stream opening at
// any cursor seeks to the mark at or before it and skips at most
// markEvery-1 records to reach it.
const markEvery = 4096

// SourceOptions configures a replication Source.
type SourceOptions struct {
	// Term is the node's current epoch, stamped on every stream header.
	Term int64
	// WALPath is the on-disk WAL this source ships: streams read its
	// acked bytes.
	WALPath string
	// SnapshotPath is the bootstrap snapshot served on /v1/repl/snapshot
	// — the state at sequence 0 of the current WAL.
	SnapshotPath string
}

// Source is the sending half of WAL shipping: it shadows a node's WAL via
// the store.WALOptions.OnRecord tap, which tells it where the acked records
// end in the file, and serves the file's bytes to followers over chunked
// HTTP. Any node can run one — followers included, so a promoted
// follower's own followers (or fresh ones) can attach without a restart.
type Source struct {
	mu      sync.Mutex
	cond    *sync.Cond
	term    int64
	lastSeq int64
	end     int64   // file offset just past record lastSeq
	marks   []int64 // marks[k] is the file offset where record k*markEvery+1 starts
	closed  bool

	walPath      string
	snapshotPath string
}

// NewSource returns a Source at sequence 0 of the current WAL, which must
// be empty. Install its OnRecord method as the WAL's record tap.
func NewSource(opts SourceOptions) *Source {
	s := &Source{
		term:         opts.Term,
		end:          store.WALHeaderSize,
		walPath:      opts.WALPath,
		snapshotPath: opts.SnapshotPath,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// OnRecord advances the acked end of the file past one flushed WAL frame.
// It matches store.WALOptions.OnRecord and is called with the WAL's append
// lock held, so it keeps only integers — the sequence, the end offset and,
// every markEvery records, a mark (the mark slice grows by doubling, so
// its allocations amortise to none) — and wakes waiters. Sequences run 1,
// 2, … without gaps, so the frame lengths alone place every record.
func (s *Source) OnRecord(seq int64, frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || seq != s.lastSeq+1 {
		// Out-of-order feed would misplace every later record; one WAL
		// calls its tap in order, so this only trips on a tap wired to
		// two logs.
		return
	}
	if (seq-1)%markEvery == 0 {
		s.marks = append(s.marks, s.end)
	}
	s.lastSeq = seq
	s.end += int64(len(frame))
	s.cond.Broadcast()
}

// Term returns the node's current epoch.
func (s *Source) Term() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term
}

// SetTerm raises the epoch stamped on new stream headers (promotion).
// In-flight streams keep their old header; consumers re-learn the term on
// reconnect.
func (s *Source) SetTerm(term int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if term > s.term {
		s.term = term
	}
}

// LastSeq returns the newest sequence the source has seen.
func (s *Source) LastSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// Close wakes and ends every in-flight stream.
func (s *Source) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Handler returns the /v1/repl/* routes. promote, when non-nil, is mounted
// as POST /v1/repl/promote (the serving node decides what promotion
// means); on a leader pass nil and the route 404s.
func (s *Source) Handler(promote http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/wal", s.handleWAL)
	mux.HandleFunc("/v1/repl/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/repl/status", s.handleStatus)
	if promote != nil {
		mux.HandleFunc("/v1/repl/promote", promote)
	}
	return mux
}

func (s *Source) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := Status{Term: s.term, LastSeq: s.lastSeq}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Source) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapshotPath == "" {
		http.Error(w, "no snapshot configured", http.StatusNotFound)
		return
	}
	f, err := os.Open(s.snapshotPath)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Term", fmt.Sprint(s.Term()))
	io.Copy(w, f)
}

// handleWAL streams the WAL file from the requested cursor: a JSON header
// line, then the file's raw v2 record frames up to the acked end, flushed
// as records are acked, blocking while caught up until the client goes
// away or the source closes. The leader decodes nothing it ships; the
// follower's scanner checks every checksum.
func (s *Source) handleWAL(w http.ResponseWriter, r *http.Request) {
	from := int64(1)
	if q := r.URL.Query().Get("from"); q != "" {
		var err error
		if from, err = strconv.ParseInt(q, 10, 64); err != nil || from < 1 {
			http.Error(w, "bad from cursor", http.StatusBadRequest)
			return
		}
	}
	s.mu.Lock()
	hdr := StreamHeader{Term: s.term, From: from, LastSeq: s.lastSeq}
	// Record from starts at the acked end when it is the next record, and
	// otherwise at most markEvery-1 records past the mark at or before it.
	base, off, end := s.lastSeq, s.end, s.end
	if from <= s.lastSeq {
		k := (from - 1) / markEvery
		base, off = k*markEvery, s.marks[k]
	}
	s.mu.Unlock()
	if hdr.LastSeq < from-1 {
		// The consumer is ahead of this log: its cursor comes from a
		// different WAL epoch (e.g. a restarted leader with a fresh log).
		// It must re-bootstrap from the snapshot, not resume.
		http.Error(w, "cursor beyond log end; re-bootstrap from snapshot", http.StatusConflict)
		return
	}
	f, err := os.Open(s.walPath)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	if off, err = seekRecord(f, off, end, base, from); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Term", fmt.Sprint(hdr.Term))
	flusher, _ := w.(http.Flusher)
	if err := writeJSONLine(w, hdr); err != nil {
		return
	}

	// Wake the wait when the client disconnects.
	ctx := r.Context()
	stopWatch := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	defer stopWatch()

	for {
		if _, err := io.CopyN(w, f, end-off); err != nil {
			return // a short file or a gone client; the client retries
		}
		if flusher != nil {
			flusher.Flush()
		}
		off = end
		var ok bool
		if end, ok = s.await(ctx, off); !ok {
			return
		}
	}
}

// seekRecord positions f at the start of record seq, given that record
// base+1 starts at offset off and the acked records end at end: it skips
// seq-base-1 records with the store's scanner, reading nothing before off
// or past end, and returns the offset reached.
func seekRecord(f *os.File, off, end, base, seq int64) (int64, error) {
	sc := store.NewRecordScanner(io.NewSectionReader(f, off, end-off), base)
	for sc.Seq() < seq-1 && sc.Scan() {
	}
	if sc.Seq() < seq-1 {
		return 0, fmt.Errorf("repl: wal file ends before record %d: %v", seq, sc.Err())
	}
	off += sc.Offset()
	_, err := f.Seek(off, io.SeekStart)
	return off, err
}

// await blocks until the acked records end past off and returns the new
// end; ok is false once the client has gone or the source has closed.
func (s *Source) await(ctx context.Context, off int64) (end int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && ctx.Err() == nil {
		if s.end > off {
			return s.end, true
		}
		s.cond.Wait()
	}
	return 0, false
}
