package repl

import (
	"errors"
	"sync/atomic"
	"time"

	"humancomp/internal/store"
)

// ErrNotWritable is returned by a SwitchableJournal with no WAL attached:
// the node is a follower (or still booting) and its write path is fenced off. The dispatch
// layer normally blocks writes before they reach the journal (read-only
// mode); this is the backstop underneath it.
var ErrNotWritable = errors.New("repl: node is not writable (follower)")

// SwitchableJournal is a core journal whose backing WAL is attached
// atomically after the System exists: every node builds its System over an
// empty one and recovers into it; a leader Sets the fresh WAL once the
// recovered state is checkpointed, a follower at promotion, so the first
// accepted write lands on the same log the replication stream was feeding.
// It forwards core.Journal's one method.
type SwitchableJournal struct {
	wal atomic.Pointer[store.WAL]
}

// Set attaches the backing WAL, flipping the journal writable.
func (j *SwitchableJournal) Set(w *store.WAL) { j.wal.Store(w) }

// AppendBatchObserved implements core.Journal.
func (j *SwitchableJournal) AppendBatchObserved(events []store.Event) (write, sync time.Duration, err error) {
	w := j.wal.Load()
	if w == nil {
		return 0, 0, ErrNotWritable
	}
	return w.AppendBatchObserved(events)
}
