package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/queue"
	"humancomp/internal/session"
	"humancomp/internal/task"
)

// Client calls that no binary makes; the tests drive the routes through
// them.

// DefaultRetry is the policy NewResilientClient installs: four attempts.
var DefaultRetry = RetryPolicy{MaxAttempts: 4}

// NewResilientClient returns a client with the default retry policy.
func NewResilientClient(baseURL string, httpClient *http.Client) *Client {
	return NewClientWith(baseURL, httpClient, ClientOptions{Retry: DefaultRetry})
}

// get decodes the JSON body of GET path.
func get[T any](c *Client, path string) (T, error) {
	var out T
	_, err := c.do(context.Background(), http.MethodGet, path, nil, &out, "")
	return out, err
}

func (c *Client) del(path string) error {
	_, err := c.do(context.Background(), http.MethodDelete, path, nil, nil, "")
	return err
}

// Release returns a lease unanswered.
func (c *Client) Release(lease queue.LeaseID) error {
	return c.del(fmt.Sprintf("/v1/leases/%d", lease))
}

// Cancel cancels an open task.
func (c *Client) Cancel(id task.ID) error { return c.del(fmt.Sprintf("/v1/tasks/%d", id)) }

// Posterior fetches the online estimator's class posterior and confidence
// for a choice task.
func (c *Client) Posterior(id task.ID) (core.PosteriorInfo, error) {
	return get[core.PosteriorInfo](c, fmt.Sprintf("/v1/tasks/%d/posterior", id))
}

// Trace fetches the retained lifecycle events of a task, oldest first.
func (c *Client) Trace(id task.ID) (TraceResponse, error) {
	return get[TraceResponse](c, fmt.Sprintf("/v1/tasks/%d/trace", id))
}

// Choice fetches the aggregated choice of a compare/judge task.
func (c *Client) Choice(id task.ID) (core.ChoiceResult, error) {
	return get[core.ChoiceResult](c, fmt.Sprintf("/v1/tasks/%d/choice", id))
}

// ListTasks fetches a page of tasks, optionally filtered by status
// ("open", "done", "canceled"; empty for all).
func (c *Client) ListTasks(status string, offset, limit int) (TaskList, error) {
	path := fmt.Sprintf("/v1/tasks?offset=%d&limit=%d", offset, limit)
	if status != "" {
		path += "&status=" + status
	}
	return get[TaskList](c, path)
}

// JoinSession enters player into matchmaking and blocks until a session
// starts.
func (c *Client) JoinSession(player string) (session.JoinInfo, error) {
	return c.JoinSessionContext(context.Background(), player)
}

// SessionEvents long-polls the session's event stream.
func (c *Client) SessionEvents(id session.ID, player string, after int, wait time.Duration) ([]session.Event, bool, error) {
	return c.SessionEventsContext(context.Background(), id, player, after, wait)
}

// SessionGuess submits one guess.
func (c *Client) SessionGuess(id session.ID, player string, word int) (session.GuessResult, error) {
	return c.SessionGuessContext(context.Background(), id, player, word)
}

// SessionLeave disconnects player from the session.
func (c *Client) SessionLeave(id session.ID, player string) error {
	return c.SessionLeaveContext(context.Background(), id, player)
}
