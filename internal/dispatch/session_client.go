package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"humancomp/internal/session"
)

// Session client calls. Join and SessionEvents are long-polls: they park
// server-side (matchmaking deadline, event wait) and the shared transport
// has no client-level timeout, so the context is the only deadline —
// bound them with context.WithTimeout when the default server waits are
// too long.

// JoinSessionContext enters player into matchmaking and blocks until a
// session starts (live partner or replay fallback). A 503 means the
// matchmaker timed out with no partner and no replay transcript was
// available yet; the retry policy backs off and rejoins automatically.
func (c *Client) JoinSessionContext(ctx context.Context, player string) (session.JoinInfo, error) {
	var info session.JoinInfo
	req := SessionJoinRequest{Player: player}
	if _, err := c.do(ctx, http.MethodPost, "/v1/sessions/join", req, &info, ""); err != nil {
		return session.JoinInfo{}, err
	}
	return info, nil
}

// JoinSession enters player into matchmaking and blocks until a session
// starts.
func (c *Client) JoinSession(player string) (session.JoinInfo, error) {
	return c.JoinSessionContext(context.Background(), player)
}

// SessionEventsContext long-polls the session's event stream for events
// with Seq > after, waiting up to wait server-side (0 returns
// immediately; the server caps the wait). done=true means the round has
// ended.
func (c *Client) SessionEventsContext(ctx context.Context, id session.ID, player string, after int, wait time.Duration) ([]session.Event, bool, error) {
	path := fmt.Sprintf("/v1/sessions/%d/events?player=%s&after=%d&wait_ms=%d",
		uint64(id), url.QueryEscape(player), after, wait.Milliseconds())
	var resp SessionEventsResponse
	if _, err := c.do(ctx, http.MethodGet, path, nil, &resp, ""); err != nil {
		return nil, false, err
	}
	return resp.Events, resp.Done, nil
}

// SessionEvents long-polls the session's event stream.
func (c *Client) SessionEvents(id session.ID, player string, after int, wait time.Duration) ([]session.Event, bool, error) {
	return c.SessionEventsContext(context.Background(), id, player, after, wait)
}

// SessionGuessContext submits one guess. Rejections (taboo, repeat, guess
// limit) come back in-band on the result, not as errors.
func (c *Client) SessionGuessContext(ctx context.Context, id session.ID, player string, word int) (session.GuessResult, error) {
	var res session.GuessResult
	req := SessionGuessRequest{Player: player, Word: word}
	if _, err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/sessions/%d/guess", uint64(id)), req, &res, ""); err != nil {
		return session.GuessResult{}, err
	}
	return res, nil
}

// SessionGuess submits one guess.
func (c *Client) SessionGuess(id session.ID, player string, word int) (session.GuessResult, error) {
	return c.SessionGuessContext(context.Background(), id, player, word)
}

// SessionPassContext gives up on the round; done reports whether the
// round ended (both live players passed, or the lone replay player did).
func (c *Client) SessionPassContext(ctx context.Context, id session.ID, player string) (bool, error) {
	var resp SessionPassResponse
	req := SessionPlayerRequest{Player: player}
	if _, err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/sessions/%d/pass", uint64(id)), req, &resp, ""); err != nil {
		return false, err
	}
	return resp.Done, nil
}

// SessionLeaveContext disconnects player from the session, ending it for
// the partner too.
func (c *Client) SessionLeaveContext(ctx context.Context, id session.ID, player string) error {
	req := SessionPlayerRequest{Player: player}
	_, err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/sessions/%d/leave", uint64(id)), req, nil, "")
	return err
}

// SessionLeave disconnects player from the session.
func (c *Client) SessionLeave(id session.ID, player string) error {
	return c.SessionLeaveContext(context.Background(), id, player)
}

// SessionStatsContext fetches the session plane's gauges and counters.
func (c *Client) SessionStatsContext(ctx context.Context) (session.Stats, error) {
	var st session.Stats
	if _, err := c.do(ctx, http.MethodGet, "/v1/sessions/stats", nil, &st, ""); err != nil {
		return session.Stats{}, err
	}
	return st, nil
}

// SessionStats fetches the session plane's gauges and counters.
func (c *Client) SessionStats() (session.Stats, error) {
	return c.SessionStatsContext(context.Background())
}
