package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"humancomp/internal/store"
)

// Lag is a follower's replication position relative to its leader.
type Lag struct {
	// Seq is the sequence delta: leader's newest known sequence minus the
	// follower's last logged one.
	Seq int64
	// Seconds is the wall-clock staleness: how long ago the follower last
	// made progress (logged a group of records or confirmed it was caught
	// up).
	Seconds float64
	// Connected reports whether the stream is currently attached.
	Connected bool
}

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Leader is the leader's base URL (scheme://host:port).
	Leader string
	// Term is the follower's current epoch (from its term file). Streams
	// with a lower term are refused.
	Term int64
	// Apply consumes one verified record in sequence order, in memory
	// only: the follower logs the record itself. A non-nil error is fatal
	// to the follower: applied state has diverged from the log, which no
	// retry can mend.
	Apply func(seq int64, e store.Event) error
	// WAL is the follower's own log, empty when the follower starts: its
	// sequence N is the leader's. The follower writes to it the verified
	// bytes of the records Apply took, so it holds its leader's bytes.
	WAL *store.WAL
	// OnTermChange, when non-nil, is called (before further applies) when
	// the stream header carries a higher term than the follower's own, so
	// the caller can persist the new epoch.
	OnTermChange func(term int64) error
	// Logger receives reconnect/refusal diagnostics; nil discards them.
	Logger *slog.Logger
}

// Follower tails a leader's WAL stream: it connects from its last logged
// sequence, verifies and applies each record, writes the records it
// applied to its WAL a group at a time — every record that one read of the
// connection delivered, up to streamBuffer bytes — and keeps reconnecting
// through drops until its context is cancelled. Every return from a stream
// first logs what it applied, so at each reconnect and at promotion the
// store holds exactly what the WAL holds. It does NOT bootstrap the
// snapshot — do that first (FetchSnapshot) so sequence 1 lands on the
// right base state.
type Follower struct {
	leader string
	apply  func(seq int64, e store.Event) error
	wal    *store.WAL
	onTerm func(term int64) error
	log    *slog.Logger
	term   atomic.Int64
	// leaderSeq is the newest sequence the leader has advertised (stream
	// headers and applied records); lag is leaderSeq - Applied().
	leaderSeq atomic.Int64
	// progressNS is the unix-nano time of the last forward progress.
	progressNS atomic.Int64
	connected  atomic.Bool
}

// reconnectDelay is the pause between stream attempts.
const reconnectDelay = 100 * time.Millisecond

// streamBuffer is the stream's read buffer and the largest group of
// records the follower writes to its WAL at once.
const streamBuffer = 64 * 1024

// NewFollower returns a follower ready to Run.
func NewFollower(opts FollowerOptions) *Follower {
	f := &Follower{
		leader: opts.Leader,
		apply:  opts.Apply,
		wal:    opts.WAL,
		onTerm: opts.OnTermChange,
		log:    opts.Logger,
	}
	if f.log == nil {
		f.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	f.term.Store(opts.Term)
	f.progressNS.Store(time.Now().UnixNano())
	return f
}

// FetchSnapshot streams the leader's bootstrap snapshot — the state at
// sequence 0 of its current WAL — and returns the term it was served under.
func FetchSnapshot(ctx context.Context, hc *http.Client, leader string) (io.ReadCloser, int64, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leader+"/v1/repl/snapshot", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, 0, fmt.Errorf("repl: snapshot fetch: %s: %s", resp.Status, body)
	}
	term, err := strconv.ParseInt(resp.Header.Get("X-Repl-Term"), 10, 64)
	if err != nil {
		resp.Body.Close()
		return nil, 0, fmt.Errorf("repl: snapshot fetch: X-Repl-Term: %w", err)
	}
	return resp.Body, term, nil
}

// Term returns the follower's current epoch.
func (f *Follower) Term() int64 { return f.term.Load() }

// Applied returns the last sequence the follower has applied and logged:
// its WAL's length.
func (f *Follower) Applied() int64 { return f.wal.Len() }

// Lag reports the follower's current replication lag. Seconds is 0 while
// the stream is attached and fully applied (idle with no traffic is not
// lag); otherwise it is the time since the follower last made progress,
// which covers both a stalled catch-up and a dead leader.
func (f *Follower) Lag() Lag {
	lag := f.leaderSeq.Load() - f.Applied()
	if lag < 0 {
		lag = 0
	}
	connected := f.connected.Load()
	secs := 0.0
	if !connected || lag > 0 {
		secs = time.Since(time.Unix(0, f.progressNS.Load())).Seconds()
	}
	return Lag{Seq: lag, Seconds: secs, Connected: connected}
}

// Run tails the leader until ctx is cancelled, reconnecting through
// transport drops. It returns nil on cancellation, ErrStaleTerm when the
// leader is a fenced old epoch, and other errors only when applying or
// logging a record failed (local state diverged).
func (f *Follower) Run(ctx context.Context) error {
	for {
		err := f.stream(ctx)
		f.connected.Store(false)
		switch {
		case ctx.Err() != nil:
			return nil
		case err == nil:
			// Stream ended cleanly (leader shut down); retry.
		case err == ErrStaleTerm:
			return err
		case isFatalApply(err):
			return err
		default:
			f.log.Debug("repl stream dropped; reconnecting", "err", err)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(reconnectDelay):
		}
	}
}

// fatalApplyError marks apply-path failures — a record the store refuses,
// a failed WAL write or fsync — that reconnecting cannot fix.
type fatalApplyError struct{ err error }

func (e fatalApplyError) Error() string { return e.err.Error() }
func (e fatalApplyError) Unwrap() error { return e.err }

func isFatalApply(err error) bool {
	_, ok := err.(fatalApplyError)
	return ok
}

// stream runs one connection: request from Applied()+1, check terms,
// apply records as they arrive and log each read's worth as one group.
func (f *Follower) stream(ctx context.Context) error {
	from := f.Applied() + 1
	u := fmt.Sprintf("%s/v1/repl/wal?from=%s", f.leader, url.QueryEscape(fmt.Sprint(from)))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	// The default client has no overall timeout: the stream is long-lived.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: stream: %s: %s", resp.Status, body)
	}

	br := bufio.NewReaderSize(resp.Body, streamBuffer)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("repl: reading stream header: %w", err)
	}
	var hdr StreamHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return fmt.Errorf("repl: decoding stream header: %w", err)
	}
	switch cur := f.term.Load(); {
	case hdr.Term < cur:
		f.log.Warn("refusing stream from fenced leader", "leader_term", hdr.Term, "term", cur)
		return ErrStaleTerm
	case hdr.Term > cur:
		if f.onTerm != nil {
			if err := f.onTerm(hdr.Term); err != nil {
				return fatalApplyError{fmt.Errorf("repl: persisting term %d: %w", hdr.Term, err)}
			}
		}
		f.term.Store(hdr.Term)
	}
	if hdr.LastSeq > f.leaderSeq.Load() {
		f.leaderSeq.Store(hdr.LastSeq)
	}
	f.connected.Store(true)
	if hdr.LastSeq < from {
		f.progressNS.Store(time.Now().UnixNano())
	}

	// The scanner reads through br (NewRecordScanner keeps a bufio.Reader
	// of its size), so an empty br means the next record needs another
	// read of the connection: the group so far is what this read brought.
	sc := store.NewRecordScanner(br, from-1)
	var group []byte
	var n int64
	for sc.Scan() {
		seq := sc.Seq()
		if err := f.apply(seq, sc.Event()); err != nil {
			if werr := f.write(group, n); werr != nil {
				return werr
			}
			return fatalApplyError{fmt.Errorf("repl: applying seq %d: %w", seq, err)}
		}
		group, n = append(group, sc.Frame()...), n+1
		if seq > f.leaderSeq.Load() {
			f.leaderSeq.Store(seq)
		}
		if len(group) >= streamBuffer || br.Buffered() == 0 {
			if err := f.write(group, n); err != nil {
				return err
			}
			group, n = group[:0], 0
		}
	}
	if err := f.write(group, n); err != nil {
		return err
	}
	// Clean EOF or torn mid-record cut: either way resume from the last
	// logged sequence on the next connection.
	if err := sc.Err(); err != nil && err != store.ErrTornRecord {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	return nil
}

// write logs n applied records, their frames back to back in group, with
// one write and one wait for durability. A failure is fatal: the store
// then holds records the log does not, and the WAL's sticky error keeps
// the node unready and, once promoted, refusing writes.
func (f *Follower) write(group []byte, n int64) error {
	if n == 0 {
		return nil
	}
	seq, err := f.wal.WriteFrames(group, n)
	if err == nil {
		_, err = f.wal.WaitDurable(seq)
	}
	if err != nil {
		return fatalApplyError{fmt.Errorf("repl: logging %d records: %w", n, err)}
	}
	f.progressNS.Store(time.Now().UnixNano())
	return nil
}
