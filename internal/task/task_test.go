package task

import (
	"errors"
	"strings"
	"testing"
	"time"

	"humancomp/internal/jsonx"
	"humancomp/internal/vocab"
)

var t0 = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func mustNew(t *testing.T, kind Kind, redundancy int) *Task {
	t.Helper()
	tk, err := New(1, kind, Payload{ImageID: 7}, redundancy, t0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tk
}

func TestKindStringsRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus kind")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, Label, Payload{}, 0, t0); !errors.Is(err, ErrBadRedundancy) {
		t.Errorf("redundancy 0: err = %v", err)
	}
	if tk, err := New(1, Label, Payload{}, MaxRedundancy, t0); err != nil || tk.Redundancy != 65535 || tk.Remaining() != 65535 {
		t.Errorf("redundancy 65535: %+v, %v", tk, err)
	}
	if _, err := New(1, Label, Payload{}, MaxRedundancy+1, t0); !errors.Is(err, ErrBadRedundancy) {
		t.Errorf("redundancy 65536: err = %v", err)
	}
	if _, err := New(1, Kind(99), Payload{}, 1, t0); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("kind 99: err = %v", err)
	}
	if _, err := New(1, numKinds, Payload{}, 1, t0); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("numKinds: err = %v", err)
	}
}

func TestRecordCompletesAtRedundancy(t *testing.T) {
	tk := mustNew(t, Label, 3)
	for i := 0; i < 3; i++ {
		if tk.Status != Open {
			t.Fatalf("task closed after %d answers", i)
		}
		a := Answer{WorkerID: string(rune('a' + i)), Words: []int{i}}
		if err := tk.Record(a, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	if tk.Status != Done {
		t.Fatalf("status = %v after redundancy met", tk.Status)
	}
	if tk.DoneAt() != StampOf(t0.Add(2*time.Second)) {
		t.Errorf("DoneAt = %v", tk.DoneAt())
	}
	if tk.Remaining() != 0 {
		t.Errorf("Remaining = %d", tk.Remaining())
	}
	// Further answers are rejected.
	err := tk.Record(Answer{WorkerID: "z", Words: []int{9}}, t0)
	if !errors.Is(err, ErrWrongStatus) {
		t.Errorf("Record after Done: err = %v", err)
	}
}

func TestRecordRejectsRepeatWorker(t *testing.T) {
	tk := mustNew(t, Label, 3)
	if err := tk.Record(Answer{WorkerID: "w", Words: []int{1}}, t0); err != nil {
		t.Fatal(err)
	}
	err := tk.Record(Answer{WorkerID: "w", Words: []int{2}}, t0)
	if !errors.Is(err, ErrWorkerRepeat) {
		t.Errorf("repeat worker: err = %v", err)
	}
	if len(tk.Answers()) != 1 {
		t.Errorf("answers = %d after rejected repeat", len(tk.Answers()))
	}
}

func TestRecordContentValidation(t *testing.T) {
	cases := []struct {
		kind    Kind
		bad     Answer
		wantErr error
		good    Answer
	}{
		{Label, Answer{}, ErrEmptyAnswer, Answer{Words: []int{3}}},
		{Describe, Answer{}, ErrEmptyAnswer, Answer{Words: []int{3}}},
		{Locate, Answer{}, ErrEmptyAnswer, Answer{Box: vocab.Rect{W: 5, H: 5}}},
		{Transcribe, Answer{}, ErrEmptyAnswer, Answer{Text: "hello"}},
		{Compare, Answer{Choice: 7}, ErrBadChoice, Answer{Choice: 1}},
		{Judge, Answer{Choice: -1}, ErrBadChoice, Answer{Choice: 0}},
	}
	for _, c := range cases {
		tk := mustNew(t, c.kind, 2)
		c.bad.WorkerID = "a"
		if err := tk.Record(c.bad, t0); !errors.Is(err, c.wantErr) {
			t.Errorf("%v bad answer: err = %v", c.kind, err)
		}
		c.good.WorkerID = "a"
		if err := tk.Record(c.good, t0); err != nil {
			t.Errorf("%v good answer: err = %v", c.kind, err)
		}
	}
}

func TestRecordStampsTaskAndTime(t *testing.T) {
	tk := mustNew(t, Label, 2)
	at := t0.Add(time.Minute)
	if err := tk.Record(Answer{WorkerID: "w", Words: []int{1}, TaskID: 999}, at); err != nil {
		t.Fatal(err)
	}
	got := tk.Answers()[0]
	if got.TaskID != tk.ID {
		t.Errorf("TaskID = %d, want %d (caller value must be overwritten)", got.TaskID, tk.ID)
	}
	if got.At != StampOf(at) {
		t.Errorf("At = %v, want %v", got.At, at)
	}
}

func TestCancel(t *testing.T) {
	tk := mustNew(t, Label, 1)
	if err := tk.Cancel(t0); err != nil {
		t.Fatal(err)
	}
	if tk.Status != Canceled {
		t.Fatalf("status = %v", tk.Status)
	}
	if err := tk.Cancel(t0); !errors.Is(err, ErrWrongStatus) {
		t.Errorf("double cancel: err = %v", err)
	}
	if err := tk.Record(Answer{WorkerID: "w", Words: []int{1}}, t0); !errors.Is(err, ErrWrongStatus) {
		t.Errorf("record after cancel: err = %v", err)
	}
}

func TestFinishEarly(t *testing.T) {
	tk := mustNew(t, Judge, 5)
	if err := tk.Record(Answer{WorkerID: "w", Choice: 1}, t0); err != nil {
		t.Fatal(err)
	}
	if err := tk.Finish(t0); err != nil {
		t.Fatal(err)
	}
	if tk.Status != Done || tk.DoneAt() != StampOf(t0) {
		t.Fatalf("status = %v, doneAt = %v", tk.Status, tk.DoneAt())
	}
	if err := tk.Finish(t0); !errors.Is(err, ErrWrongStatus) {
		t.Errorf("double finish: err = %v", err)
	}
	if err := tk.Record(Answer{WorkerID: "x", Choice: 0}, t0); !errors.Is(err, ErrWrongStatus) {
		t.Errorf("record after finish: err = %v", err)
	}
}

func TestRemaining(t *testing.T) {
	tk := mustNew(t, Label, 2)
	if tk.Remaining() != 2 {
		t.Fatalf("Remaining = %d", tk.Remaining())
	}
	_ = tk.Record(Answer{WorkerID: "a", Words: []int{1}}, t0)
	if tk.Remaining() != 1 {
		t.Fatalf("Remaining = %d", tk.Remaining())
	}
}

func TestStatusString(t *testing.T) {
	if Open.String() != "open" || Done.String() != "done" || Canceled.String() != "canceled" {
		t.Error("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status should still stringify")
	}
}

func TestViewIsDeepCopy(t *testing.T) {
	tk := mustNew(t, Label, 2)
	tk.Payload.Detail = &Detail{Word: 5, Taboo: []int{10, 11}}
	if err := tk.Record(Answer{WorkerID: "a", Words: []int{1, 2}}, t0); err != nil {
		t.Fatal(err)
	}
	v := tk.View()

	// Mutating the live task does not reach the view.
	if err := tk.Record(Answer{WorkerID: "b", Words: []int{3}}, t0); err != nil {
		t.Fatal(err)
	}
	tk.Payload.Taboo[0] = 99
	tk.Payload.Word = 99
	tk.Answers()[0].Words[0] = 99
	if len(v.Answers()) != 1 || v.Answers()[0].Words[0] != 1 || v.Payload.Taboo[0] != 10 || v.Payload.Word != 5 {
		t.Fatalf("view sees later mutation: %+v", v)
	}

	// Mutating the view does not reach the task.
	v.Answers()[0].Words[1] = 77
	v.Payload.Taboo[1] = 77
	v.Payload.Word = 77
	if tk.Answers()[0].Words[1] != 2 || tk.Payload.Taboo[1] != 11 || tk.Payload.Word != 99 {
		t.Fatalf("task sees view mutation: %+v", tk)
	}

	if n := v.Remaining(); n != 1 {
		t.Fatalf("view needs %d more answers, want 1", n)
	}

	// An image task has no Detail, and neither has its view.
	if v := mustNew(t, Label, 2).View(); v.Payload.Detail != nil {
		t.Fatalf("view of an image task has a Detail: %+v", v.Payload.Detail)
	}
}

// TestByteFieldsOutOfRange: kind and status are bytes, so a record in
// canonical form whose kind or status lies outside 0–255 is not read in
// place, where it would wrap (300 to 44, -1 to 255); it goes to
// encoding/json, which refuses it.
func TestByteFieldsOutOfRange(t *testing.T) {
	const doc = `{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"image_id":7},"redundancy":1,"priority":0}`
	var tk Task
	if err := tk.DecodeJSON([]byte(doc)); err != nil {
		t.Fatalf("in-range record: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(doc, `"kind":0`, `"kind":300`, 1),
		strings.Replace(doc, `"kind":0`, `"kind":256`, 1),
		strings.Replace(doc, `"status":0`, `"status":-1`, 1),
		strings.Replace(doc, `"status":0`, `"status":256`, 1),
	} {
		c := jsonx.NewCanon([]byte(bad))
		var in Task
		DecodeTask(&c, &in)
		if c.OK() {
			t.Errorf("%s decoded in place as kind %d, status %d", bad, in.Kind, in.Status)
		}
		if err := tk.DecodeJSON([]byte(bad)); err == nil {
			t.Errorf("%s decoded as kind %d, status %d; want encoding/json's error", bad, tk.Kind, tk.Status)
		}
	}
	edge := strings.Replace(strings.Replace(doc, `"kind":0`, `"kind":255`, 1), `"status":0`, `"status":255`, 1)
	c := jsonx.NewCanon([]byte(edge))
	DecodeTask(&c, &tk)
	if !c.Done() || tk.Kind != 255 || tk.Status != 255 {
		t.Errorf("%s: in place %v, kind %d, status %d; want 255 and 255, in place", edge, c.Done(), tk.Kind, tk.Status)
	}
}

// TestOffsetStampsDecodeWithoutALocation: the storage codec reads a
// timestamp straight into a Stamp, so a task whose times carry a zone
// offset decodes with the allocations of one whose times are in UTC.
// Through time.Time, each offset built a time.Location.
func TestOffsetStampsDecodeWithoutALocation(t *testing.T) {
	const doc = `{"id":1,"kind":4,"status":1,"created_at":"2026-07-06T12:00:00Z","done_at":"2026-07-06T12:00:02.5Z","payload":{"image_id":1,"image_b":2},"redundancy":1,"priority":0,` +
		`"answers":[{"task_id":1,"worker_id":"w","at":"2026-07-06T12:00:02.5Z","choice":1}]}`
	decode := func(doc string) (*Task, float64) {
		var tk Task
		allocs := testing.AllocsPerRun(100, func() {
			if err := tk.DecodeJSON([]byte(doc)); err != nil {
				t.Fatal(err)
			}
		})
		return &tk, allocs
	}
	utc, utcAllocs := decode(doc)
	offset := strings.ReplaceAll(doc, "Z", "+05:30")
	tk, offsetAllocs := decode(offset)
	if offsetAllocs != utcAllocs {
		t.Errorf("decoding a task with +05:30 stamps takes %.0f allocations; with Z, %.0f", offsetAllocs, utcAllocs)
	}
	want := StampOf(time.Date(2026, 7, 6, 12, 0, 2, 5e8, time.FixedZone("", 5*3600+30*60)))
	if tk.DoneAt() != want || tk.Answers()[0].At != want || utc.DoneAt() != StampOf(t0.Add(2500*time.Millisecond)) {
		t.Errorf("decoded done_at %v and at %v; want %v", tk.DoneAt().Time(), tk.Answers()[0].At.Time(), want.Time())
	}
	if b, err := tk.AppendJSON(nil); err != nil || string(b) != offset {
		t.Errorf("re-encoded as %s, %v", b, err)
	}
}
