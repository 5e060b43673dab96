package dispatch

import (
	"errors"
	"sync"
	"sync/atomic"

	"humancomp/internal/core"
	"humancomp/internal/queue"
	"humancomp/internal/session"
	"humancomp/internal/task"
)

// SessionBridge connects the live session plane to the task plane: its
// OnResult turns every agreement into per-player answers on a Label task
// backing the session's item — through the normal targeted-lease path
// (core.LeaseTaskFor + SubmitAnswer), so session output hits the WAL, the
// quality plane, and the GWAP accounting exactly like any worker answer.
//
// Each item maps to one open Label task at a time; when the task fills
// its redundancy (or is otherwise unleasable) the bridge submits a fresh
// one for the item and retries once. Answers it still cannot place are
// counted in Dropped rather than blocking the session path.
type SessionBridge struct {
	sys *core.System

	mu    sync.Mutex
	tasks map[int]task.ID

	submitted atomic.Int64
	dropped   atomic.Int64
}

// bridgeRedundancy is the answers each backing task collects: both seats
// of one agreement land on the same task.
const bridgeRedundancy = 2

// NewSessionBridge returns a bridge answering into sys.
func NewSessionBridge(sys *core.System) *SessionBridge {
	return &SessionBridge{sys: sys, tasks: make(map[int]task.ID)}
}

// OnResult records an agreement as answers from its players; plug into
// session.Config.OnResult. Non-agreements are ignored. In replay mode
// only the live seat answers — the recorded partner's contribution was
// already counted when their original game finished.
func (b *SessionBridge) OnResult(r session.Result) {
	if !r.Agreed {
		return
	}
	seats := 2
	if r.Mode == session.Replay {
		seats = 1
	}
	for seat := 0; seat < seats; seat++ {
		if b.answerAs(r.Players[seat], r.Item, r.Word) {
			b.submitted.Add(1)
		} else {
			b.dropped.Add(1)
		}
	}
}

// answerAs leases the item's backing task for the player and answers it,
// refreshing the task once if the current one is no longer leasable.
func (b *SessionBridge) answerAs(player string, item, word int) bool {
	for attempt := 0; attempt < 2; attempt++ {
		id, err := b.taskFor(item, attempt > 0)
		if err != nil {
			return false
		}
		_, lease, err := b.sys.LeaseTaskFor(id, player)
		if err != nil {
			// ErrEmpty: the task is done, fully in flight, or this player
			// already answered it. A fresh task fixes the first two; the
			// retry also gives up cleanly on the third (the player's
			// answer lands on the new task).
			if errors.Is(err, queue.ErrEmpty) || errors.Is(err, queue.ErrUnknownTask) {
				continue
			}
			return false
		}
		if err := b.sys.SubmitAnswer(lease, task.Answer{Words: []int{word}}); err != nil {
			_ = b.sys.ReleaseTask(lease)
			return false
		}
		return true
	}
	return false
}

// taskFor returns the open backing task for item, submitting one when
// missing or when refresh forces a new generation.
func (b *SessionBridge) taskFor(item int, refresh bool) (task.ID, error) {
	b.mu.Lock()
	id, ok := b.tasks[item]
	b.mu.Unlock()
	if ok && !refresh {
		return id, nil
	}
	fresh, err := b.sys.SubmitTask(task.Label, task.Payload{ImageID: item}, bridgeRedundancy, 0)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	// Another goroutine may have refreshed concurrently; last write wins,
	// both tasks are real and answerable.
	b.tasks[item] = fresh
	b.mu.Unlock()
	return fresh, nil
}

// Stats reports how many session answers the bridge placed and dropped.
func (b *SessionBridge) Stats() (submitted, dropped int64) {
	return b.submitted.Load(), b.dropped.Load()
}
