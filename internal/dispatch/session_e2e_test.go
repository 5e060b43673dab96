package dispatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/core"
	"humancomp/internal/session"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
)

// newSessionTestStack builds system + bridge + session plane + HTTP
// server + client: the full live-session wire path.
func newSessionTestStack(t *testing.T, matchTimeout time.Duration) (*core.System, *SessionBridge, *session.Plane, *Client) {
	t.Helper()
	return newSessionTestStackWith(t, matchTimeout, Options{})
}

// newSessionTestStackWith is newSessionTestStack with server options
// beside the session plane.
func newSessionTestStackWith(t *testing.T, matchTimeout time.Duration, opts Options) (*core.System, *SessionBridge, *session.Plane, *Client) {
	t.Helper()
	sys := core.New(core.DefaultConfig())
	bridge := NewSessionBridge(sys)
	plane, err := session.New(session.Config{
		MatchTimeout: matchTimeout,
		RoundTimeout: 10 * time.Second,
		Lexicon:      vocab.NewLexicon(vocab.LexiconConfig{Size: 500, ZipfS: 1, SynonymRate: 0, Seed: 1}),
		Items:        4,
		OnResult:     bridge.OnResult,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plane.Close)
	opts.Sessions = plane
	srv := httptest.NewServer(NewServerWith(sys, opts))
	t.Cleanup(srv.Close)
	return sys, bridge, plane, NewClient(srv.URL, nil)
}

// joinPairWire pairs a and b over the wire: a joins and waits, then b
// arrives.
func joinPairWire(t *testing.T, plane *session.Plane, client *Client, a, b string) (session.JoinInfo, session.JoinInfo) {
	t.Helper()
	var infoA session.JoinInfo
	var errA error
	joined := make(chan struct{})
	go func() {
		infoA, errA = client.JoinSession(a)
		close(joined)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for plane.Stats().Waiting == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	infoB, errB := client.JoinSession(b)
	<-joined
	if errA != nil || errB != nil {
		t.Fatalf("joins failed: %v / %v", errA, errB)
	}
	return infoA, infoB
}

// TestSessionE2E drives a session end to end over the wire:
// two clients get paired, play an ESP output-agreement round, and the
// agreement lands as answers in the quality plane; a third, lone client
// times out of matchmaking into replay mode against the first game's
// transcript.
func TestSessionE2E(t *testing.T) {
	sys, bridge, plane, client := newSessionTestStack(t, 300*time.Millisecond)

	// Pair alice and bob over the wire.
	infoA, infoB := joinPairWire(t, plane, client, "alice", "bob")
	if infoA.Session != infoB.Session || infoA.Mode != "live" || infoB.Mode != "live" {
		t.Fatalf("pairing mismatch: %+v vs %+v", infoA, infoB)
	}
	id := infoA.Session
	item := infoA.Item
	word := 30

	// Alice guesses; bob long-polls and must see the guess happened but
	// not what it was. Each player opens with a word of their own, which
	// a later replay of their transcript plays first.
	if res, err := client.SessionGuess(id, "alice", word+1); err != nil || !res.Accepted || res.Matched {
		t.Fatalf("alice guess: %+v err=%v", res, err)
	}
	evs, done, err := client.SessionEvents(id, "bob", 1, 2*time.Second)
	if err != nil || done || len(evs) == 0 {
		t.Fatalf("bob events: evs=%v done=%v err=%v", evs, done, err)
	}
	if evs[0].Type != session.EvPartnerGuess || evs[0].Word != 0 {
		t.Fatalf("partner guess event leaked or missing: %+v", evs[0])
	}

	for _, g := range []struct {
		player string
		word   int
	}{{"alice", word}, {"bob", word + 2}} {
		if res, err := client.SessionGuess(id, g.player, g.word); err != nil || !res.Accepted || res.Matched {
			t.Fatalf("%s guess: %+v err=%v", g.player, res, err)
		}
	}
	// Bob matches; the round ends in agreement.
	res, err := client.SessionGuess(id, "bob", word)
	if err != nil || !res.Matched || res.Word != word || !res.Done {
		t.Fatalf("bob matching guess: %+v err=%v", res, err)
	}
	evs, done, err = client.SessionEvents(id, "alice", 0, 2*time.Second)
	if err != nil || !done {
		t.Fatalf("alice final events: done=%v err=%v", done, err)
	}
	if last := evs[len(evs)-1]; last.Type != session.EvEnd || last.Reason != agree.EndAgreed {
		t.Fatalf("final event = %+v", last)
	}

	// The agreement flowed through the bridge into the task plane: a
	// done Label task on the item holding both players' answers.
	waitBridge := time.Now().Add(2 * time.Second)
	for {
		if placed, _ := bridge.Stats(); placed == 2 {
			break
		}
		if time.Now().After(waitBridge) {
			placed, dropped := bridge.Stats()
			t.Fatalf("bridge placed %d / dropped %d answers, want 2 placed", placed, dropped)
		}
		time.Sleep(5 * time.Millisecond)
	}
	list, err := client.ListTasks("done", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	var backing *task.View
	for i := range list.Tasks {
		tv := &list.Tasks[i]
		if tv.Kind == task.Label && tv.Payload.ImageID == item {
			backing = tv
		}
	}
	if backing == nil {
		t.Fatalf("no done Label task for item %d (tasks: %+v)", item, list.Tasks)
	}
	if len(backing.Answers()) != 2 {
		t.Fatalf("backing task has %d answers", len(backing.Answers()))
	}
	workers := map[string]bool{}
	for _, a := range backing.Answers() {
		workers[a.WorkerID] = true
		if len(a.Words) != 1 || a.Words[0] != word {
			t.Fatalf("answer words = %v", a.Words)
		}
	}
	if !workers["alice"] || !workers["bob"] {
		t.Fatalf("answer workers = %v", workers)
	}
	if st := sys.Stats(); st.AnswersTotal != 2 {
		t.Fatalf("system AnswersTotal = %d", st.AnswersTotal)
	}

	// Carol joins alone: the matchmaking deadline passes and she gets a
	// replayed partner recorded from the alice/bob game.
	infoC, err := client.JoinSession("carol")
	if err != nil {
		t.Fatal(err)
	}
	if infoC.Mode != "replay" {
		t.Fatalf("lone join mode = %q", infoC.Mode)
	}
	if infoC.Item != item {
		t.Fatalf("replay item = %d, want %d", infoC.Item, item)
	}
	// The recorded transcripts are [31 30] and [32 30], and 30 turned
	// taboo at the agreement. The partner typed its opening word before
	// carol's first guess; the one typed after it is the refused 30.
	resC, err := client.SessionGuess(infoC.Session, "carol", word+1)
	if err == nil && !resC.Matched {
		resC, err = client.SessionGuess(infoC.Session, "carol", word+2)
	}
	if err != nil || !resC.Matched {
		t.Fatalf("carol guess: %+v err=%v", resC, err)
	}

	st, err := client.SessionStatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 1 || st.Replay != 1 || st.Agreements != 2 || st.Open != 0 {
		t.Fatalf("session stats = %+v", st)
	}
	// Carol's answer landed on a fresh backing task (the first one was
	// already complete).
	waitBridge = time.Now().Add(2 * time.Second)
	for {
		if placed, dropped := bridge.Stats(); placed == 3 && dropped == 0 {
			break
		}
		if time.Now().After(waitBridge) {
			placed, dropped := bridge.Stats()
			t.Fatalf("bridge placed %d / dropped %d answers, want 3/0", placed, dropped)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The play is the plane's: three visits (alice and bob's live round,
	// carol's replay round) and one output an agreement. The task plane's
	// answers add nothing to it.
	if g := plane.GWAP(); g.Outputs != 2 || g.Sessions != 3 || g.Players != 3 || g.TotalPlayHours <= 0 {
		t.Fatalf("plane GWAP %+v; want 2 outputs (the agreements), 3 sessions and 3 players", g)
	}
}

// TestSessionAdminMetrics scrapes the admin exposition with the session
// plane wired and checks the hc_sessions_* and hc_gwap_* families render.
func TestSessionAdminMetrics(t *testing.T) {
	sys, bridge, plane, _ := newSessionTestStack(t, 50*time.Millisecond)
	admin := httptest.NewServer(NewAdminHandler(sys, nil, AdminOptions{
		Sessions:      plane,
		SessionBridge: bridge,
	}))
	defer admin.Close()
	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"hc_sessions_open", "hc_sessions_replay_ratio",
		"hc_sessions_match_wait_seconds", "hc_sessions_answers_placed_total",
		"hc_sessions_oldest_wait_seconds",
		"hc_gwap_players", "hc_gwap_sessions_total", "hc_gwap_outputs_total",
		"hc_gwap_throughput_per_hour", "hc_gwap_alp_minutes", "hc_gwap_expected_contribution",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("metrics exposition missing %s", fam)
		}
	}
}

// TestSessionRoutesAbsentWithoutPlane pins that a server built without
// Options.Sessions has no session surface at all.
func TestSessionRoutesAbsentWithoutPlane(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := httptest.NewServer(NewServer(sys))
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	_, err := client.JoinSession("nobody")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("join without plane: %v", err)
	}
}

// TestSessionErrorMapping pins the HTTP statuses of the session error
// table.
func TestSessionErrorMapping(t *testing.T) {
	_, _, plane, client := newSessionTestStack(t, 50*time.Millisecond)

	// Unknown session: 404.
	var apiErr *APIError
	if _, _, err := client.SessionEvents(99, "x", 0, 0); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown session: %v", err)
	}
	// Lone player, empty replay store: 503 after the match deadline. The
	// plain client performs no retries, so the error surfaces directly.
	if _, err := client.JoinSession("lonely"); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("no-partner join: %v", err)
	}
	// Stranger on someone else's session: 403.
	info, _ := joinPairWire(t, plane, client, "m1", "m2")
	if _, err := client.SessionGuess(info.Session, "stranger", 1); !errors.As(err, &apiErr) || apiErr.Status != 403 {
		t.Fatalf("stranger guess: %v", err)
	}
	// A word outside the lexicon is a 400, not a server panic.
	if _, err := client.SessionGuess(info.Session, "m1", 1<<30); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("out-of-lexicon guess: %v", err)
	}
	// Guessing a finished round: 409.
	if err := client.SessionLeave(info.Session, "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SessionGuess(info.Session, "m1", 1); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Fatalf("guess after end: %v", err)
	}
}

// TestEventsWaitCannotWrap pins that a huge wait_ms parks the long-poll
// for the capped wait: converted to a Duration before the clamp, these
// values wrapped negative and the poll returned empty at once, so a
// client re-polling with them spun.
func TestEventsWaitCannotWrap(t *testing.T) {
	_, _, plane, client := newSessionTestStack(t, 5*time.Second)
	info, _ := joinPairWire(t, plane, client, "w1", "w2")
	for _, ms := range []string{"9223372036855", "18446744073709"} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		url := fmt.Sprintf("%s/v1/sessions/%d/events?player=w1&after=1&wait_ms=%s", client.baseURL, info.Session, ms)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("wait_ms=%s returned at once: %d %s", ms, resp.StatusCode, body)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("wait_ms=%s: %v", ms, err)
		}
	}
}
