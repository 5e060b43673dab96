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
// It forwards core.Journal's two halves.
type SwitchableJournal struct {
	wal atomic.Pointer[store.WAL]
}

// Set attaches the backing WAL, flipping the journal writable.
func (j *SwitchableJournal) Set(w *store.WAL) { j.wal.Store(w) }

// WriteEvents implements core.Journal.
func (j *SwitchableJournal) WriteEvents(events []store.Event) (int64, error) {
	w := j.wal.Load()
	if w == nil {
		return 0, ErrNotWritable
	}
	return w.WriteEvents(events)
}

// WaitDurable implements core.Journal.
func (j *SwitchableJournal) WaitDurable(seq int64) (time.Duration, error) {
	w := j.wal.Load()
	if w == nil {
		return 0, ErrNotWritable
	}
	return w.WaitDurable(seq)
}
