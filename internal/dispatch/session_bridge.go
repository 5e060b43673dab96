package dispatch

import (
	"sync/atomic"

	"humancomp/internal/core"
	"humancomp/internal/session"
)

// SessionBridge connects the live session plane to the task plane: its
// OnResult records every agreement as one core.RecordAgreement, a Label
// task on the session's item born Done with one answer a seat, so session
// output hits the WAL and the counters in one write. The play behind an
// agreement is counted by the session plane itself (session.Plane.GWAP),
// not here. Answers it cannot record are counted as dropped rather than
// blocking the session path.
type SessionBridge struct {
	sys *core.System

	submitted atomic.Int64
	dropped   atomic.Int64
}

// NewSessionBridge returns a bridge answering into sys.
func NewSessionBridge(sys *core.System) *SessionBridge {
	return &SessionBridge{sys: sys}
}

// OnResult records an agreement as answers from its players; plug into
// session.Config.OnResult. Non-agreements are ignored. In replay mode
// only the live seat answers — the recorded partner's contribution was
// already counted when their original game finished.
func (b *SessionBridge) OnResult(r session.Result) {
	if !r.Agreed {
		return
	}
	players := r.Players[:]
	if r.Mode == session.Replay {
		players = players[:1]
	}
	if b.sys.RecordAgreement(r.Item, r.Word, players...) == nil {
		b.submitted.Add(int64(len(players)))
	} else {
		b.dropped.Add(int64(len(players)))
	}
}

// Stats reports how many session answers the bridge placed and dropped.
func (b *SessionBridge) Stats() (submitted, dropped int64) {
	return b.submitted.Load(), b.dropped.Load()
}
