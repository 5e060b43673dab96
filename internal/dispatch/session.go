package dispatch

import (
	"net/http"
	"strconv"
	"time"

	"humancomp/internal/session"
)

// Session routes, registered only when Options.Sessions is set:
//
//	POST /v1/sessions/join        enter matchmaking; blocks until a live
//	                              partner arrives or the match timeout
//	                              falls back to a replayed one
//	GET  /v1/sessions/{id}/events long-poll the session's event stream
//	POST /v1/sessions/{id}/guess  submit a guess
//	POST /v1/sessions/{id}/pass   give up on the round
//	POST /v1/sessions/{id}/leave  disconnect from the session
//	GET  /v1/sessions/stats       session-plane gauges and counters
//
// The join and events routes block by design (matchmaking deadline,
// long-poll wait), so they are registered without the shedder and
// request-timeout middleware the request/response routes use: a parked
// long-poll is idle, not stuck, and must not eat the in-flight budget or
// be cut off mid-wait. Client disconnects still cancel the handler via
// the request context.

// maxEventWait caps how long one events long-poll may park server-side;
// clients simply re-poll. Kept under common LB/proxy idle timeouts.
const maxEventWait = 55 * time.Second

// defaultEventWait is the long-poll wait when the client sends no
// wait_ms.
const defaultEventWait = 25 * time.Second

// SessionJoinRequest is the body of POST /v1/sessions/join.
type SessionJoinRequest struct {
	Player string `json:"player"`
}

// SessionGuessRequest is the body of POST /v1/sessions/{id}/guess.
type SessionGuessRequest struct {
	Player string `json:"player"`
	Word   int    `json:"word"`
}

// SessionPlayerRequest is the body of pass and leave calls.
type SessionPlayerRequest struct {
	Player string `json:"player"`
}

// SessionEventsResponse is the body returned by the events long-poll. An
// empty Events with Done=false means the wait expired; re-poll with the
// same cursor. Done=true means the round is over and the stream is
// complete up to the returned events.
type SessionEventsResponse struct {
	Events []session.Event `json:"events"`
	Done   bool            `json:"done"`
}

// SessionPassResponse is the body returned by POST /v1/sessions/{id}/pass.
type SessionPassResponse struct {
	Done bool `json:"done"`
}

// sessionID parses the {id} path component.
func sessionID(w http.ResponseWriter, r *http.Request) (session.ID, bool) {
	raw := r.PathValue("id")
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || n == 0 {
		badRequest(w, r, "dispatch: invalid session id %q", raw)
		return 0, false
	}
	return session.ID(n), true
}

// sessionRequest reads a session call: the {id} path component into id,
// unless id is nil, and a body naming a player into req, whose Player
// field player points at. It answers 400 and returns false on a bad id, a
// bad body or an empty player.
func sessionRequest(e *exchange, r *http.Request, id *session.ID, req any, player *string) bool {
	if id != nil {
		n, ok := sessionID(e, r)
		if !ok {
			return false
		}
		*id = n
	}
	if !e.decode(r, req, maxSingleBody) {
		return false
	}
	if *player == "" {
		badRequest(e, r, "dispatch: player required")
		return false
	}
	return true
}

func (s *Server) handleSessionJoin(e *exchange, r *http.Request) {
	var req SessionJoinRequest
	if !sessionRequest(e, r, nil, &req, &req.Player) {
		return
	}
	info, err := s.sessions.Join(r.Context(), req.Player)
	if err != nil {
		writeError(e, r, err)
		return
	}
	writeJSON(e, http.StatusOK, info)
}

func (s *Server) handleSessionEvents(e *exchange, r *http.Request) {
	id, ok := sessionID(e, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	player := q.Get("player")
	if player == "" {
		badRequest(e, r, "dispatch: player required")
		return
	}
	after := 0
	if raw := q.Get("after"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			badRequest(e, r, "dispatch: invalid after %q", raw)
			return
		}
		after = n
	}
	wait := defaultEventWait
	if raw := q.Get("wait_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms < 0 {
			badRequest(e, r, "dispatch: invalid wait_ms %q", raw)
			return
		}
		// Clamp before converting: a large ms overflows the Duration.
		wait = time.Duration(min(ms, int(maxEventWait/time.Millisecond))) * time.Millisecond
	}
	evs, done, err := s.sessions.Events(r.Context(), id, player, after, wait)
	if err != nil {
		writeError(e, r, err)
		return
	}
	if evs == nil {
		evs = []session.Event{}
	}
	writeJSON(e, http.StatusOK, SessionEventsResponse{Events: evs, Done: done})
}

func (s *Server) handleSessionGuess(e *exchange, r *http.Request) {
	var id session.ID
	var req SessionGuessRequest
	if !sessionRequest(e, r, &id, &req, &req.Player) {
		return
	}
	res, err := s.sessions.Guess(id, req.Player, req.Word)
	if err != nil {
		writeError(e, r, err)
		return
	}
	writeJSON(e, http.StatusOK, res)
}

func (s *Server) handleSessionPass(e *exchange, r *http.Request) {
	var id session.ID
	var req SessionPlayerRequest
	if !sessionRequest(e, r, &id, &req, &req.Player) {
		return
	}
	done, err := s.sessions.Pass(id, req.Player)
	if err != nil {
		writeError(e, r, err)
		return
	}
	writeJSON(e, http.StatusOK, SessionPassResponse{Done: done})
}

func (s *Server) handleSessionLeave(e *exchange, r *http.Request) {
	var id session.ID
	var req SessionPlayerRequest
	if !sessionRequest(e, r, &id, &req, &req.Player) {
		return
	}
	if err := s.sessions.Leave(id, req.Player); err != nil {
		writeError(e, r, err)
		return
	}
	e.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionStats(e *exchange, r *http.Request) {
	writeJSON(e, http.StatusOK, s.sessions.Stats())
}
