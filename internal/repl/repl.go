// Package repl implements leader→follower WAL shipping and failover for
// the task service. The leader streams its write-ahead log over HTTP as
// the same length-prefixed, CRC32C-checksummed v2 records it writes to
// disk (internal/store); a follower boots from the leader's snapshot,
// tails the stream, applies each verified record to its own store, writes
// the bytes it received to its own WAL — so its log is its leader's — and
// can be promoted to leader when the old one dies.
//
// Consistency contract: a record enters the stream only after the leader's
// WAL has flushed it — exactly the set of acknowledged events — and a
// follower applies and logs only complete, checksum-verified records,
// which is the streaming form of the truncating-recovery rule (longest
// valid prefix wins, a torn tail is never applied). A follower logs what
// it has applied before every return from a stream, so at promotion its
// store and its WAL hold the same records. Promotion therefore needs no
// reconciliation: whatever the follower has applied IS the longest valid
// prefix it ever received.
//
// Epoch fencing: every stream response opens with a header carrying the
// sender's term, a counter bumped (and persisted) at each promotion. A
// consumer refuses a stream whose term is lower than its own, so a zombie
// leader — killed operationally but still running — cannot feed stale
// records to nodes that have moved on.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"humancomp/internal/store"
)

// StreamHeader is the first line of a /v1/repl/wal response body (JSON,
// newline-terminated), followed by raw v2 record frames. From echoes the
// request cursor; LastSeq is the newest sequence the sender had at connect
// time, letting the consumer measure its initial lag.
type StreamHeader struct {
	Term    int64 `json:"term"`
	From    int64 `json:"from"`
	LastSeq int64 `json:"last_seq"`
}

// Status is the /v1/repl/status response body.
type Status struct {
	Term    int64 `json:"term"`
	LastSeq int64 `json:"last_seq"`
}

// ErrStaleTerm reports a stream whose header term is lower than the
// consumer's own: the sender is a fenced old leader and its records must
// not be applied.
var ErrStaleTerm = errors.New("repl: stale term")

// LoadTerm reads a persisted term from path. A missing file is term 0 (the
// node has never been promoted and has never seen a promoted leader).
func LoadTerm(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	term, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: parsing term file %s: %w", path, err)
	}
	return term, nil
}

// SaveTerm durably persists term to path (write-temp, fsync, rename), so a
// promoted node still fences the old epoch after its own restart.
func SaveTerm(path string, term int64) error {
	return store.WriteDurable(path, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", term)
		return err
	})
}

// writeJSONLine writes v as one newline-terminated JSON document.
func writeJSONLine(w interface{ Write([]byte) (int, error) }, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
