package dispatch

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/store"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
)

// TestClientBodiesAreReadCanonically: the submit bodies Client sends
// (json.Marshal of the request types) and the ones bench/ writes by hand
// (ordered subsets of the keys) are taken by the request types' own readers, not handed to
// encoding/json, and decode to what was sent. (A string json.Marshal
// escapes, such as one holding <, is left to encoding/json.)
func TestClientBodiesAreReadCanonically(t *testing.T) {
	at := task.StampOf(time.Date(2026, 7, 6, 12, 0, 0, 5, time.FixedZone("", -3600)))
	gold := task.Answer{TaskID: 4, WorkerID: "w1", At: at, Words: []int{3, 4}, Box: vocab.Rect{X: 1, Y: 2, W: 3, H: 4}, Text: "é", Choice: 1}
	sent := []interface{ DecodeCanonical([]byte) bool }{
		&SubmitRequest{Kind: "label", Payload: task.Payload{ImageID: 7}, Redundancy: 3, Priority: -1},
		&SubmitRequest{Kind: "judge", Payload: task.Payload{Detail: &task.Detail{Word: 1, WordImg: "a b", Taboo: []int{-1, 2}, ClipA: 3, ClipB: 4}}, Redundancy: 1, Gold: true, Expected: &gold},
		&BatchSubmitRequest{Tasks: []SubmitRequest{{Kind: "compare", Payload: task.Payload{ImageID: 1, ImageB: 2}, Redundancy: 3}, {Kind: "unknown", Redundancy: 1}}},
	}
	for _, v := range sent {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface().(interface{ DecodeCanonical([]byte) bool })
		if !got.DecodeCanonical(body) || !reflect.DeepEqual(got, v) {
			t.Errorf("%T body %s: read %+v, want %+v", v, body, got, v)
		}
	}
	for body, want := range map[string]interface{ DecodeCanonical([]byte) bool }{
		`{"kind":"compare","payload":{"image_id":5,"image_b":6},"redundancy":3,"priority":2}`: &SubmitRequest{Kind: "compare", Payload: task.Payload{ImageID: 5, ImageB: 6}, Redundancy: 3, Priority: 2},
		`{"tasks":[{"kind":"label","payload":{"image_id":1},"redundancy":3,"priority":0}]}`:   &BatchSubmitRequest{Tasks: []SubmitRequest{{Kind: "label", Payload: task.Payload{ImageID: 1}, Redundancy: 3}}},
		`{"tasks":[]}`:                &BatchSubmitRequest{Tasks: []SubmitRequest{}},
		`{"payload":{},"gold":false}`: &SubmitRequest{},
		`{"kind":"label","gold":true,"expected":{"task_id":2,"at":"0001-01-01T00:00:00Z"}}`: &SubmitRequest{Kind: "label", Gold: true, Expected: &task.Answer{TaskID: 2}},
	} {
		got := reflect.New(reflect.TypeOf(want).Elem()).Interface().(interface{ DecodeCanonical([]byte) bool })
		if !got.DecodeCanonical([]byte(body)) || !reflect.DeepEqual(got, want) {
			t.Errorf("bench body %s: read %+v, want %+v", body, got, want)
		}
	}
}

// TestBatchSubmitReplyIsTheEncodersBytes: a :batch submit's results,
// appended without reflection, are byte for byte what json.Encoder makes
// of the same value, escaping included.
func TestBatchSubmitReplyIsTheEncodersBytes(t *testing.T) {
	sys := core.New(core.DefaultConfig())
	srv := NewServer(sys)
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	encoded := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	same := func(what string, rec *httptest.ResponseRecorder, want []byte) {
		t.Helper()
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: %d\n got %s\nwant %s", what, rec.Code, rec.Body, want)
		}
		if h := rec.Header(); h.Get("Content-Type") != "application/json" || h.Get("Content-Length") != strconv.Itoa(len(want)) {
			t.Fatalf("%s: headers %v", what, h)
		}
	}

	rec := post("/v1/tasks:batch", `{"tasks":[`+
		`{"kind":"label","payload":{"image_id":3,"taboo":[4,5]},"redundancy":3,"priority":2},`+
		`{"kind":"transcribe","payload":{"word_img":"a<b>&c d \"é"},"redundancy":1,"priority":5},`+
		`{"kind":"<&>"},`+
		`{"kind":"label","gold":true},`+
		`{"kind":"label","redundancy":0},`+
		`{"kind":"locate","payload":{"image_id":1,"word":2},"redundancy":2,"priority":1}]}`)
	stored := sys.Store().Tasks(store.AnyStatus)
	if len(stored) != 3 {
		t.Fatalf("batch submit stored %d tasks, want 3: %s", len(stored), rec.Body)
	}
	same("batch submit", rec, encoded(BatchSubmitResponse{Results: []BatchSubmitResult{
		{Status: http.StatusCreated, ID: stored[0].ID},
		{Status: http.StatusCreated, ID: stored[1].ID},
		{Status: http.StatusBadRequest, Error: `task: unknown kind "<&>"`},
		{Status: http.StatusBadRequest, Error: "dispatch: gold task requires expected answer"},
		{Status: http.StatusUnprocessableEntity, Error: task.ErrBadRedundancy.Error()},
		{Status: http.StatusCreated, ID: stored[2].ID},
	}}))
}
