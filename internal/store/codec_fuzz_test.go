package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"humancomp/internal/jsonx"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
)

// refTask, refAnswer and refEvent are the records as encoding/json reads
// and writes them by reflection: the field lists, orders and tags a task,
// an answer and an event are encoded by, with every time a time.Time. They
// are the fuzzers' reference, so the codec under test is never its own.
type (
	refTask struct {
		ID         task.ID      `json:"id"`
		Kind       task.Kind    `json:"kind"`
		Status     task.Status  `json:"status"`
		CreatedAt  time.Time    `json:"created_at"`
		DoneAt     time.Time    `json:"done_at,omitzero"`
		Payload    task.Payload `json:"payload"`
		Redundancy int          `json:"redundancy"`
		Priority   int          `json:"priority"`
		Answers    []refAnswer  `json:"answers,omitempty"`
	}
	refAnswer struct {
		TaskID   task.ID    `json:"task_id"`
		WorkerID string     `json:"worker_id"`
		At       time.Time  `json:"at"`
		Words    []int      `json:"words,omitempty"`
		Box      vocab.Rect `json:"box,omitzero"`
		Text     string     `json:"text,omitempty"`
		Choice   int        `json:"choice,omitempty"`
	}
	refEvent struct {
		Kind   EventKind  `json:"kind"`
		At     time.Time  `json:"at"`
		Task   *refTask   `json:"task,omitempty"`
		TaskID task.ID    `json:"task_id,omitempty"`
		Answer *refAnswer `json:"answer,omitempty"`
		Gold   *refAnswer `json:"gold,omitempty"`
	}
)

func refTaskOf(t *task.Task) *refTask {
	r := &refTask{
		ID: t.ID, Kind: t.Kind, Status: t.Status, CreatedAt: t.CreatedAt.Time(), DoneAt: t.DoneAt().Time(),
		Payload: t.Payload, Redundancy: int(t.Redundancy), Priority: t.Priority,
	}
	for _, a := range t.Answers() {
		r.Answers = append(r.Answers, *refAnswerOf(&a))
	}
	return r
}

func refAnswerOf(a *task.Answer) *refAnswer {
	if a == nil {
		return nil
	}
	return &refAnswer{a.TaskID, a.WorkerID, a.At.Time(), a.Words, a.Box, a.Text, a.Choice}
}

func refEventOf(e *Event) *refEvent {
	r := &refEvent{Kind: e.Kind, At: e.At, TaskID: e.TaskID, Answer: refAnswerOf(e.Answer), Gold: refAnswerOf(e.Gold)}
	if e.Task != nil {
		r.Task = refTaskOf(e.Task)
	}
	return r
}

// errTooRedundant stands for the refusal the codec owes a record that
// encoding/json reads but whose redundancy a task.Task cannot hold.
var errTooRedundant = errors.New("redundancy out of range")

// task is r as a task.Task, or errTooRedundant.
func (r *refTask) task() (*task.Task, error) {
	if r.Redundancy < 0 || r.Redundancy > task.MaxRedundancy {
		return nil, errTooRedundant
	}
	t := &task.Task{
		ID: r.ID, Kind: r.Kind, Status: r.Status, Redundancy: uint16(r.Redundancy),
		CreatedAt: task.StampOf(r.CreatedAt), Payload: r.Payload, Priority: r.Priority,
	}
	var answers []task.Answer
	for i := range r.Answers {
		answers = append(answers, *r.Answers[i].answer())
	}
	t.SetEnded(task.StampOf(r.DoneAt), answers)
	return t, nil
}

func (r *refAnswer) answer() *task.Answer {
	if r == nil {
		return nil
	}
	return &task.Answer{TaskID: r.TaskID, WorkerID: r.WorkerID, At: task.StampOf(r.At), Words: r.Words, Box: r.Box, Text: r.Text, Choice: r.Choice}
}

// event is r as an Event, or errTooRedundant.
func (r *refEvent) event() (e Event, err error) {
	e = Event{Kind: r.Kind, At: r.At, TaskID: r.TaskID, Answer: r.Answer.answer(), Gold: r.Gold.answer()}
	if r.Task != nil {
		e.Task, err = r.Task.task()
	}
	return e, err
}

// sameOutcome reports whether the codec's error matches the reference's:
// both nil, both refusals of encoding/json, or a redundancy the codec
// refuses by name.
func sameOutcome(got, want error) bool {
	if errors.Is(want, errTooRedundant) {
		return errors.Is(got, task.ErrBadRedundancy) && strings.Contains(got.Error(), "redundancy")
	}
	return (got == nil) == (want == nil)
}

// FuzzTaskCodecMatchesStdlib is the storage codec's contract: on every
// input it is encoding/json over the reference records above, but for a
// redundancy a task cannot hold, which it refuses by name. Each fuzz input
// is used twice. As text, it is decoded as an event, a task and an answer
// by the codec and by json.Unmarshal, which must agree on error-or-not and
// on the value. As a source of field values, it is turned into an event
// (with its task and answers), whose encoding by the codec must be
// json.Marshal's bytes — or json.Marshal's refusal — and those bytes are
// then decoded both ways too.
func FuzzTaskCodecMatchesStdlib(f *testing.F) {
	// Canonical records of every shape, then each way text can be valid JSON
	// without being canonical, then text that is not JSON at all.
	for _, tk := range richTasks(8) {
		doc, err := json.Marshal(refTaskOf(tk))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add(doc[:len(doc)*2/3])
		ev, _ := json.Marshal(refEventOf(&Event{Kind: EventSubmit, At: tk.CreatedAt.Time(), Task: tk}))
		f.Add(ev)
		for _, a := range tk.Answers() {
			doc, _ := json.Marshal(refAnswerOf(&a))
			f.Add(doc)
			ev, _ := json.Marshal(refEventOf(&Event{Kind: EventAnswer, At: a.At.Time(), TaskID: tk.ID, Answer: &a}))
			f.Add(ev)
			ev, _ = json.Marshal(refEventOf(&Event{Kind: EventSubmit, At: a.At.Time(), Task: tk, Gold: &a}))
			f.Add(ev)
			f.Add(ev[:len(ev)-1])
		}
	}
	for _, s := range []string{
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":3}`,
		`{"kind":"finish","at":"2026-07-06T14:00:00.000000001+02:00","task_id":3}`,
		`{"at":"2026-07-06T12:00:00Z","task_id":3,"kind":"cancel"}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":3}`,
		` { "kind" : "cancel" , "at" : "2026-07-06T12:00:00Z" , "task_id" : 3 } `,
		`{"kind":"answer","at":"2026-07-06T12:00:00Z","task":null,"task_id":2,"answer":null,"gold":null}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":3,"later":{"x":[1,"]}"]}}`,
		`{"Kind":"cancel","AT":"2026-07-06T12:00:00Z","Task_ID":3}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":3,"task_id":4}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":3}{}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":0}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":-0}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":03}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":3.0}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":3e0}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":9223372036854775807}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":9223372036854775808}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":-9223372036854775808}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00Z","task_id":"3"}`,
		`{"kind":"cancel","at":"2026-07-06 12:00:00","task_id":3}`,
		`{"kind":"cancel","at":"2026-02-30T12:00:00Z","task_id":3}`,
		`{"kind":"cancel","at":"2026-07-06T12:00:00+24:00","task_id":3}`,
		`{"kind":"cancel","at":null,"task_id":3}`,
		`{"kind":"can` + "\xff" + `cel","at":"2026-07-06T12:00:00Z","task_id":3}`,
		`{"kind":"can` + "\n" + `cel","at":"2026-07-06T12:00:00Z","task_id":3}`,
		`{"kind":"` + "\u00e9\u2028\u2029" + `","at":"2026-07-06T12:00:00Z","task_id":3}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":1,"priority":0,"answers":[]}`,
		// A Detail key, whatever its value, gives the payload a Detail.
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"taboo":[]},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"taboo":null},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":1,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"word":0},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":5,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"clip_b":2},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":5,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"image_id":1,"Detail":{"clip_b":2}},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"image_id":1,},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{,"image_id":1},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"taboo":[1,,2]},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"clip_b":2,"clip_a":1},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":"label","redundancy":1}`,
		// Kind and status are bytes: out of range, a canonical record is
		// encoding/json's to refuse, never wrapped in place.
		`{"id":1,"kind":300,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":-1,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":256,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		`{"kind":"submit","at":"2026-07-06T12:00:00Z","task":{"id":1,"kind":255,"status":256,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":1,"priority":0}}`,
		// done_at is read where the encoder writes it, and only there; a
		// zero one, or null, decodes as its absence.
		`{"id":1,"kind":0,"status":1,"created_at":"2026-07-06T12:00:00Z","done_at":"2026-07-06T12:00:01.5+01:00","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":1,"created_at":"2026-07-06T12:00:00Z","done_at":"0001-01-01T00:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":1,"created_at":"2026-07-06T12:00:00Z","done_at":null,"payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":1,"done_at":"2026-07-06T12:00:01Z","created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":1,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":1,"priority":0,"done_at":"2026-07-06T12:00:01Z"}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00+24:00","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"10000-01-01T00:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		// The key order before the times moved up, with done_at on every
		// task, and the one before that: status after priority, and the
		// empty box every answer used to carry.
		`{"id":1,"kind":0,"status":0,"payload":{},"redundancy":1,"priority":0,"created_at":"2026-07-06T12:00:00Z","done_at":"0001-01-01T00:00:00Z"}`,
		`{"id":1,"kind":0,"status":2,"payload":{"image_id":1},"redundancy":1,"priority":0,"created_at":"2026-07-06T12:00:00Z","done_at":"2026-07-06T13:00:00Z","answers":[{"task_id":1,"worker_id":"w","at":"2026-07-06T12:00:00Z","words":[1]}]}`,
		`{"id":1,"kind":0,"payload":{},"redundancy":1,"priority":0,"status":0,"created_at":"2026-07-06T12:00:00Z","done_at":"0001-01-01T00:00:00Z"}`,
		`{"task_id":1,"worker_id":"w","at":"2026-07-06T12:00:00Z","words":[1],"box":{"X":0,"Y":0,"W":0,"H":0}}`,
		`{"kind":"answer","at":"2026-07-06T12:00:00Z","task_id":1,"answer":{"task_id":1,"worker_id":"w","at":"2026-07-06T12:00:00Z","box":{"X":0,"Y":0,"W":0,"H":0},"choice":1}}`,
		`{"task_id":1,"worker_id":"w","at":"2026-07-06T12:00:00Z","box":{"X":1,"Y":2,"W":3,"H":4}}`,
		`{"task_id":1,"worker_id":"w","at":"2026-07-06T12:00:00Z","box":{"x":1,"Y":2,"W":3,"H":4}}`,
		`{"task_id":1,"worker_id":"w","at":"2026-07-06T12:00:00Z","words":null,"box":{"X":1,"Y":2,"W":3,"H":4}}`,
		// Redundancy is 16 bits: the largest it holds, the first it does
		// not, and one below zero, in a task, an event and a task set twice.
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":65535,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":65536,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":-1,"priority":0}`,
		`{"kind":"submit","at":"2026-07-06T12:00:00Z","task":{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{},"redundancy":65536,"priority":0}}`,
		`{"kind":"submit","at":"2026-07-06T12:00:00Z","task":{"id":1,"redundancy":2,"priority":5,"payload":{"image_id":3}},"task":{"id":2,"payload":{"image_b":4}}}`,
		// Offsets the canonical reader decodes without a time.Location,
		// and forms only time.Parse reads.
		`{"id":1,"kind":0,"status":1,"created_at":"2026-07-06T12:00:00+05:30","done_at":"2026-07-06T12:00:00.123456789123-09:45","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T12:00:00,5Z","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-07-06T1:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2024-02-29T12:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		`{"id":1,"kind":0,"status":0,"created_at":"2026-02-29T12:00:00Z","payload":{},"redundancy":1,"priority":0}`,
		`null`, `{}`, `[]`, `7`, `"x"`, `{`, ``, `{"kind":`, "\x00",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		decodesLikeStdlib(t, data)

		g := gen{data}
		e := g.event()
		want, wantErr := json.Marshal(refEventOf(&e))
		got, gotErr := appendEvent([]byte("prefix"), &e)
		encodesLikeStdlib(t, "event", got, gotErr, want, wantErr)
		if wantErr == nil {
			decodesLikeStdlib(t, want)
		}
		if e.Task != nil {
			want, wantErr := json.Marshal(refTaskOf(e.Task))
			got, gotErr := e.Task.AppendJSON([]byte("prefix"))
			encodesLikeStdlib(t, "task", got, gotErr, want, wantErr)
			if wantErr == nil {
				decodesLikeStdlib(t, want)
			}
			// The task's json.Marshaler is the codec.
			got, gotErr = json.Marshal(e.Task)
			encodesLikeStdlib(t, "task by json.Marshal", append([]byte("prefix"), got...), gotErr, want, wantErr)
		}
		if e.Answer != nil {
			want, wantErr := json.Marshal(refAnswerOf(e.Answer))
			got, ok := task.AppendAnswer([]byte("prefix"), e.Answer)
			if ok != (wantErr == nil) {
				t.Fatalf("answer %+v: AppendAnswer ok=%v, json.Marshal error %v", e.Answer, ok, wantErr)
			}
			if ok {
				encodesLikeStdlib(t, "answer", got, nil, want, nil)
				decodesLikeStdlib(t, want)
			}
		}
	})
}

func encodesLikeStdlib(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: codec error %v, json.Marshal error %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s encodes as\n%s\njson.Marshal writes\n%s", what, got, want)
	}
}

// decodesLikeStdlib decodes doc as each record type, by the codec and by
// json.Unmarshal into the reference records, and requires one outcome. The
// codec's targets start out dirty, a populated payload Detail included, the
// event's task too, since a scanner decodes each record into the last's: it
// must replace, not merge. On an error DecodeJSON leaves the zero task.
func decodesLikeStdlib(t *testing.T, doc []byte) {
	t.Helper()
	dirty := task.Answer{TaskID: 99, WorkerID: "stale", At: task.StampOf(t0), Words: []int{9}, Text: "stale", Choice: 9}
	dirty.Box.W = 9
	stale := func() task.Task {
		t := task.Task{ID: 99, Redundancy: 3, Payload: task.Payload{Detail: &task.Detail{WordImg: "stale", Taboo: []int{9}, ClipB: 9}}}
		t.SetEnded(task.StampOf(t0), []task.Answer{dirty})
		return t
	}

	var ref refEvent
	var wantEvent Event
	wantErr := json.Unmarshal(doc, &ref)
	if wantErr == nil {
		wantEvent, wantErr = ref.event()
	}
	gotEvent, gotErr := decodeEvent(doc, &eventBox{task: stale(), answer: dirty, gold: dirty})
	if !sameOutcome(gotErr, wantErr) || wantErr == nil && !reflect.DeepEqual(gotEvent, wantEvent) {
		t.Fatalf("event %q\n codec: %+v, %v\nstdlib: %+v, %v", doc, gotEvent, gotErr, wantEvent, wantErr)
	}

	var refT refTask
	wantTask := new(task.Task)
	wantErr = json.Unmarshal(doc, &refT)
	if wantErr == nil {
		wantTask, wantErr = refT.task()
	}
	if wantErr != nil {
		wantTask = new(task.Task)
	}
	gotTask := stale()
	gotErr = gotTask.DecodeJSON(doc)
	if !sameOutcome(gotErr, wantErr) || !reflect.DeepEqual(&gotTask, wantTask) {
		t.Fatalf("task %q\n codec: %+v, %v\nstdlib: %+v, %v", doc, gotTask, gotErr, wantTask, wantErr)
	}

	// An answer has no document-level decoder of its own (it only ever
	// arrives inside an event or a task): what the canonical reader accepts
	// must be what json.Unmarshal makes of it.
	c := jsonx.NewCanon(doc)
	gotAnswer := dirty
	task.DecodeAnswer(&c, &gotAnswer)
	if c.Done() {
		var wantAnswer refAnswer
		if err := json.Unmarshal(doc, &wantAnswer); err != nil || !reflect.DeepEqual(&gotAnswer, wantAnswer.answer()) {
			t.Fatalf("answer %q\n codec: %+v\nstdlib: %+v, %v", doc, gotAnswer, wantAnswer, err)
		}
	}
}

// gen spends fuzz input on field values. Out of input, everything is zero.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) take(n int) []byte {
	n = min(n, len(g.b))
	out := g.b[:n]
	g.b = g.b[n:]
	return out
}

func (g *gen) int() int {
	switch g.byte() % 4 {
	case 0:
		return 0
	case 1:
		return int(int8(g.byte()))
	case 2:
		return int(int32(binary.LittleEndian.Uint32(append(g.take(4), 0, 0, 0, 0))))
	default:
		return int(int64(binary.LittleEndian.Uint64(append(g.take(8), 0, 0, 0, 0, 0, 0, 0, 0))))
	}
}

// str returns raw input bytes: invalid UTF-8, control characters, quotes
// and HTML characters included.
func (g *gen) str() string { return string(g.take(int(g.byte() % 24))) }

func (g *gen) ints() []int {
	n := int(g.byte() % 5)
	if n == 4 {
		return []int{} // empty but not nil: omitempty drops it all the same
	}
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, g.int())
	}
	return out
}

func (g *gen) time() time.Time {
	sec, nsec := int64(1_700_000_000+g.int()%1_000_000_000), int64(g.int()%1_000_000_000)
	switch g.byte() % 6 {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(sec, nsec).UTC()
	case 2:
		return time.Unix(sec, 0).UTC()
	case 3: // any zone offset, whole minutes or not, in range or not
		return time.Unix(sec, nsec).In(time.FixedZone("", g.int()%200_000))
	case 4: // any year, in range or not
		return time.Date(g.int()%20_000, 2, 3, 4, 5, 6, int(nsec), time.UTC)
	default:
		return time.Unix(sec, nsec) // local zone
	}
}

func (g *gen) answer() *task.Answer {
	a := &task.Answer{TaskID: task.ID(g.int()), WorkerID: g.str(), At: task.StampOf(g.time()), Words: g.ints(), Text: g.str(), Choice: g.int()}
	a.Box.X, a.Box.Y, a.Box.W, a.Box.H = g.int(), g.int(), g.int(), g.int()
	return a
}

// detail is nil, set but empty (which encodes as no Detail at all), or
// drawn field by field.
func (g *gen) detail() *task.Detail {
	switch g.byte() % 3 {
	case 0:
		return nil
	case 1:
		return &task.Detail{}
	default:
		return &task.Detail{Word: g.int(), WordImg: g.str(), Taboo: g.ints(), ClipA: g.int(), ClipB: g.int()}
	}
}

func (g *gen) task() *task.Task {
	tk := &task.Task{
		ID: task.ID(g.int()), Kind: task.Kind(g.int()),
		Payload:    task.Payload{ImageID: g.int(), ImageB: g.int(), Detail: g.detail()},
		Redundancy: uint16(g.int()), Priority: g.int(), Status: task.Status(g.int()),
		CreatedAt: task.StampOf(g.time()),
	}
	done := task.StampOf(g.time())
	var answers []task.Answer
	for n := g.byte() % 4; n > 0; n-- {
		answers = append(answers, *g.answer())
	}
	tk.SetEnded(done, answers)
	return tk
}

func (g *gen) event() Event {
	e := Event{Kind: EventKind(g.str()), At: g.time(), TaskID: task.ID(g.int())}
	if k := g.byte() % 8; k < 4 {
		e.Kind = []EventKind{EventSubmit, EventAnswer, EventCancel, EventFinish}[k]
	}
	shape := g.byte()
	if shape&1 != 0 {
		e.Task = g.task()
	}
	if shape&2 != 0 {
		e.Answer = g.answer()
	}
	if shape&4 != 0 {
		e.Gold = g.answer()
	}
	return e
}
