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
// It satisfies all four journal capabilities (plain, batch, observed,
// observed-batch).
type SwitchableJournal struct {
	wal atomic.Pointer[store.WAL]
}

// Set attaches the backing WAL, flipping the journal writable.
func (j *SwitchableJournal) Set(w *store.WAL) { j.wal.Store(w) }

// WAL returns the attached log, or nil before promotion.
func (j *SwitchableJournal) WAL() *store.WAL { return j.wal.Load() }

// Append implements core.Journal.
func (j *SwitchableJournal) Append(e store.Event) error {
	w := j.wal.Load()
	if w == nil {
		return ErrNotWritable
	}
	return w.Append(e)
}

// AppendBatch implements core.BatchJournal.
func (j *SwitchableJournal) AppendBatch(events []store.Event) error {
	w := j.wal.Load()
	if w == nil {
		return ErrNotWritable
	}
	return w.AppendBatch(events)
}

// AppendObserved implements core.ObservedJournal.
func (j *SwitchableJournal) AppendObserved(e store.Event) (write, sync time.Duration, err error) {
	w := j.wal.Load()
	if w == nil {
		return 0, 0, ErrNotWritable
	}
	return w.AppendObserved(e)
}

// AppendBatchObserved implements core.ObservedBatchJournal.
func (j *SwitchableJournal) AppendBatchObserved(events []store.Event) (write, sync time.Duration, err error) {
	w := j.wal.Load()
	if w == nil {
		return 0, 0, ErrNotWritable
	}
	return w.AppendBatchObserved(events)
}
