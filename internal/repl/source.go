package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"humancomp/internal/store"
)

// DefaultTailSize is the default number of recent WAL frames a Source
// keeps in memory for streaming. Followers lagging further than this are
// served from the WAL file on disk until they re-enter the window.
const DefaultTailSize = 4096

// SourceOptions configures a replication Source.
type SourceOptions struct {
	// Term is the node's current epoch, stamped on every stream header.
	Term int64
	// WALPath, when set, is the on-disk WAL this source shadows; frames
	// older than the in-memory tail are re-read from it.
	WALPath string
	// Snapshot supplies the bootstrap snapshot served on
	// /v1/repl/snapshot — the state at sequence 0 of the current WAL.
	Snapshot func() (io.ReadCloser, error)
	// TailSize bounds the in-memory frame tail; 0 selects DefaultTailSize.
	TailSize int
}

// SnapshotFile adapts a snapshot path on disk to SourceOptions.Snapshot.
func SnapshotFile(path string) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) { return os.Open(path) }
}

// Source is the sending half of WAL shipping: it shadows a node's WAL via
// the store.WALOptions.OnRecord tap, keeps a bounded in-memory tail of
// framed records, and serves them to followers over chunked HTTP. Any node
// can run one — followers included, so a promoted follower's own followers
// (or fresh ones) can attach without a restart.
type Source struct {
	mu      sync.Mutex
	cond    *sync.Cond
	term    int64
	frames  [][]byte // fixed ring of the newest len(frames) records: sequence q sits at frames[q%len(frames)]
	lastSeq int64
	closed  bool

	walPath  string
	snapshot func() (io.ReadCloser, error)
}

// NewSource returns a Source at sequence 0 of the current WAL. Install its
// OnRecord method as the WAL's record tap.
func NewSource(opts SourceOptions) *Source {
	tailSize := opts.TailSize
	if tailSize <= 0 {
		tailSize = DefaultTailSize
	}
	s := &Source{
		term:     opts.Term,
		frames:   make([][]byte, tailSize),
		walPath:  opts.WALPath,
		snapshot: opts.Snapshot,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// OnRecord feeds one flushed WAL frame into the tail. It matches
// store.WALOptions.OnRecord and is called with the WAL's append lock held,
// so it only stores into the ring — overwriting the oldest frame once the
// ring is full, with no allocation or copy at any fill — and wakes waiters.
// Sequences run 1, 2, … without gaps, so lastSeq alone says what the ring
// holds.
func (s *Source) OnRecord(seq int64, frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || seq != s.lastSeq+1 {
		// Out-of-order feed would corrupt the window; the WAL tap is
		// strictly ordered, so this only trips if a tap outlives a Reset.
		return
	}
	s.frames[seq%int64(len(s.frames))] = frame
	s.lastSeq = seq
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
	if s.snapshot == nil {
		http.Error(w, "no snapshot configured", http.StatusNotFound)
		return
	}
	rc, err := s.snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, rc)
}

// handleWAL streams frames from the requested cursor: a JSON header line,
// then raw v2 record frames, flushed per record, blocking while caught up
// until the client goes away or the source closes.
func (s *Source) handleWAL(w http.ResponseWriter, r *http.Request) {
	from := int64(1)
	if q := r.URL.Query().Get("from"); q != "" {
		if _, err := fmt.Sscan(q, &from); err != nil || from < 1 {
			http.Error(w, "bad from cursor", http.StatusBadRequest)
			return
		}
	}
	s.mu.Lock()
	hdr := StreamHeader{Term: s.term, From: from, LastSeq: s.lastSeq}
	s.mu.Unlock()
	if hdr.LastSeq < from-1 {
		// The consumer is ahead of this log: its cursor comes from a
		// different WAL epoch (e.g. a restarted leader with a fresh log).
		// It must re-bootstrap from the snapshot, not resume.
		http.Error(w, "cursor beyond log end; re-bootstrap from snapshot", http.StatusConflict)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Term", fmt.Sprint(hdr.Term))
	flusher, _ := w.(http.Flusher)
	if err := writeJSONLine(w, hdr); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}

	// Wake the wait loop when the client disconnects.
	ctx := r.Context()
	stopWatch := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	defer stopWatch()

	cur := from
	for {
		frame, ok, err := s.next(ctx, cur)
		if err != nil || !ok {
			return
		}
		if frame == nil {
			// Evicted from the tail: catch up from the file, then re-enter
			// the window.
			reached, err := s.streamFile(w, flusher, cur)
			if err != nil || reached < cur {
				return // damaged file or no progress; client retries
			}
			cur = reached + 1
			continue
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		cur++
	}
}

// next blocks until sequence cur is available. It returns (frame, true) on
// a tail hit, (nil, true) when cur has been evicted (file fallback), and
// ok=false when the stream should end.
func (s *Source) next(ctx context.Context, cur int64) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		if s.closed {
			return nil, false, nil
		}
		if cur <= s.lastSeq {
			if cur > 0 && cur > s.lastSeq-int64(len(s.frames)) {
				return s.frames[cur%int64(len(s.frames))], true, nil
			}
			if s.walPath == "" {
				return nil, false, fmt.Errorf("repl: seq %d evicted and no wal file", cur)
			}
			return nil, true, nil
		}
		s.cond.Wait()
	}
}

// streamFile serves frames [cur, …] straight from the WAL file until its
// readable end, returning the last sequence written. A torn tail is normal
// (the writer may be mid-append); the caller resumes from the tail window.
func (s *Source) streamFile(w io.Writer, flusher http.Flusher, cur int64) (int64, error) {
	f, err := os.Open(s.walPath)
	if err != nil {
		return cur - 1, err
	}
	defer f.Close()
	sc := store.NewRecordScanner(f, 0)
	reached := cur - 1
	for sc.Scan() {
		if sc.Seq() < cur {
			continue
		}
		if sc.Seq() > reached+1 {
			return reached, fmt.Errorf("repl: wal file skips seq %d", reached+1)
		}
		if _, err := w.Write(sc.Frame()); err != nil {
			return reached, err
		}
		reached = sc.Seq()
	}
	if flusher != nil {
		flusher.Flush()
	}
	if err := sc.Err(); err != nil && err != store.ErrTornRecord {
		return reached, err
	}
	return reached, nil
}
