package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"humancomp/internal/task"
)

// referenceSnapshot is the document as a struct: what encoding/json makes of
// it is the wire format, and the streamed writer has to produce those bytes.
type referenceSnapshot struct {
	Version     int             `json:"version"`
	NextID      task.ID         `json:"next_id"`
	Tasks       []task.View     `json:"tasks"`
	Calibration json.RawMessage `json:"calibration,omitempty"`
}

func referenceBytes(t *testing.T, s *Store, calibration json.RawMessage) []byte {
	t.Helper()
	ref := referenceSnapshot{Version: 1, NextID: task.ID(s.nextID.Load()), Tasks: s.ViewByStatus(AnyStatus), Calibration: calibration}
	if ref.Tasks == nil {
		ref.Tasks = []task.View{} // an empty table is [], not null
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func streamedBytes(t *testing.T, s *Store, calibration json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SnapshotWith(&buf, calibration); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// richTasks covers every field the encoder treats specially: answers with
// word lists, boxes and text, taboo lists, strings that need HTML and
// line-separator escaping, zero and non-zero times.
func richTasks(n int) []*task.Task {
	out := make([]*task.Task, 0, n)
	for i := 1; i <= n; i++ {
		id := task.ID(i * 3) // gaps in the ID space
		created := time.Unix(int64(1_700_000_000+i), int64(i)).UTC()
		tk := &task.Task{
			ID:         id,
			Kind:       task.Kind(i % 6),
			Payload:    task.Payload{ImageID: i, Detail: &task.Detail{Word: i % 7, WordImg: "<img& " + fmt.Sprint(i) + ">", ClipA: i, ClipB: -i}},
			Redundancy: uint16(1 + i%3),
			Priority:   i%5 - 2,
			Status:     task.Status(i % 3),
			CreatedAt:  task.StampOf(created),
		}
		if i%2 == 0 {
			tk.Payload.Taboo = []int{i, i + 1, i + 2}
		}
		var answers []task.Answer
		for a := 0; a < i%4; a++ {
			ans := task.Answer{TaskID: id, WorkerID: fmt.Sprintf("w<%d>&", a), At: task.StampOf(created.Add(time.Duration(a+1) * time.Second)), Choice: a % 2}
			switch a % 3 {
			case 0:
				ans.Words = []int{a, i, 42}
			case 1:
				ans.Text = "r eCAPTCHA \"word\" " + fmt.Sprint(i)
			case 2:
				ans.Box.X, ans.Box.Y, ans.Box.W, ans.Box.H = a, i, 10, 20
			}
			answers = append(answers, ans)
		}
		var done task.Stamp
		if tk.Status != task.Open {
			done = task.StampOf(created.Add(time.Hour))
		}
		tk.SetEnded(done, answers)
		out = append(out, tk)
	}
	return out
}

// A sidecar as the quality plane would never write it but any JSON producer
// may: insignificant whitespace, and the characters json.Encoder escapes
// inside a RawMessage (it compacts and HTML-escapes what MarshalJSON
// returns).
const messyCalibration = "{ \"gold\" : {\"3\": {\"text\": \"a<b && c>d e\"}},\n\t\"reputation\": [1, 2.50, 3e2 ] }"

// TestSnapshotMatchesReferenceEncoding pins the streamed writer to the
// bytes json.Encoder produces for the whole document, with and without a
// sidecar, and for the empty store.
func TestSnapshotMatchesReferenceEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 257} {
		for _, cal := range []json.RawMessage{nil, json.RawMessage(messyCalibration), json.RawMessage("null")} {
			s := New()
			for _, tk := range richTasks(n) {
				s.Put(tk)
			}
			got, want := streamedBytes(t, s, cal), referenceBytes(t, s, cal)
			if !bytes.Equal(got, want) {
				t.Fatalf("tasks=%d calibration=%q: streamed snapshot differs from the reference encoding\n got %s\nwant %s",
					n, cal, clip(got), clip(want))
			}
			if n == 0 && !bytes.Contains(got, []byte(`"tasks":[]`)) {
				t.Fatalf("empty store encodes its tasks as %s", got)
			}
		}
	}
	if err := New().SnapshotWith(new(bytes.Buffer), json.RawMessage("{not json")); err == nil {
		t.Fatal("a sidecar that is not JSON was written into a snapshot")
	}
}

func clip(b []byte) string {
	if len(b) > 600 {
		return string(b[:600]) + "…"
	}
	return string(b)
}

// TestSnapshotGolden pins the format itself, independent of any encoder: a
// document in it restores, and is written back byte for byte. The same
// document in each form earlier versions wrote restores too, and is
// written back in today's form.
func TestSnapshotGolden(t *testing.T) {
	const golden = `{"version":1,"next_id":9,"tasks":[` +
		`{"id":2,"kind":0,"status":1,"created_at":"2026-07-06T12:00:00Z","done_at":"2026-07-06T12:01:00Z","payload":{"image_id":7,"taboo":[4,5]},"redundancy":2,"priority":1,` +
		`"answers":[{"task_id":2,"worker_id":"a","at":"2026-07-06T12:00:30Z","words":[3,4]},` +
		`{"task_id":2,"worker_id":"b \u003c\u0026\u003e","at":"2026-07-06T12:01:00Z","box":{"X":1,"Y":2,"W":3,"H":4},"text":"x","choice":1}]},` +
		`{"id":5,"kind":3,"status":0,"created_at":"2026-07-06T12:00:00Z","payload":{"word_img":"w.png"},"redundancy":1,"priority":0}` +
		`],"calibration":{"gold":{"5":{"text":"w"}}}}` + "\n"
	// The forms written before: the times after the priority and done_at
	// always present, with the status beside the kind or, earlier, after
	// the priority and an empty box on every answer.
	const stampsLast = `{"version":1,"next_id":9,"tasks":[` +
		`{"id":2,"kind":0,"status":1,"payload":{"image_id":7,"taboo":[4,5]},"redundancy":2,"priority":1,"created_at":"2026-07-06T12:00:00Z","done_at":"2026-07-06T12:01:00Z",` +
		`"answers":[{"task_id":2,"worker_id":"a","at":"2026-07-06T12:00:30Z","words":[3,4]},` +
		`{"task_id":2,"worker_id":"b \u003c\u0026\u003e","at":"2026-07-06T12:01:00Z","box":{"X":1,"Y":2,"W":3,"H":4},"text":"x","choice":1}]},` +
		`{"id":5,"kind":3,"status":0,"payload":{"word_img":"w.png"},"redundancy":1,"priority":0,"created_at":"2026-07-06T12:00:00Z","done_at":"0001-01-01T00:00:00Z"}` +
		`],"calibration":{"gold":{"5":{"text":"w"}}}}` + "\n"
	const statusLast = `{"version":1,"next_id":9,"tasks":[` +
		`{"id":2,"kind":0,"payload":{"image_id":7,"taboo":[4,5]},"redundancy":2,"priority":1,"status":1,"created_at":"2026-07-06T12:00:00Z","done_at":"2026-07-06T12:01:00Z",` +
		`"answers":[{"task_id":2,"worker_id":"a","at":"2026-07-06T12:00:30Z","words":[3,4],"box":{"X":0,"Y":0,"W":0,"H":0}},` +
		`{"task_id":2,"worker_id":"b \u003c\u0026\u003e","at":"2026-07-06T12:01:00Z","box":{"X":1,"Y":2,"W":3,"H":4},"text":"x","choice":1}]},` +
		`{"id":5,"kind":3,"payload":{"word_img":"w.png"},"redundancy":1,"priority":0,"status":0,"created_at":"2026-07-06T12:00:00Z","done_at":"0001-01-01T00:00:00Z"}` +
		`],"calibration":{"gold":{"5":{"text":"w"}}}}` + "\n"
	for _, doc := range []string{golden, stampsLast, statusLast} {
		s := New()
		cal, err := s.RestoreWith(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(streamedBytes(t, s, cal)); got != golden {
			t.Fatalf("golden snapshot came back as\n%s\nwant\n%s", got, golden)
		}
		if id := s.NextID(); id != 10 {
			t.Fatalf("NextID after restoring next_id 9 = %d", id)
		}
	}
}

// TestSnapshotRestoreIsAFixedPoint: streamed write → streamed restore →
// streamed write reproduces the bytes, sidecar included.
func TestSnapshotRestoreIsAFixedPoint(t *testing.T) {
	src := New()
	for _, tk := range richTasks(300) {
		src.Put(tk)
	}
	first := streamedBytes(t, src, json.RawMessage(messyCalibration))
	dst := New()
	cal, err := dst.RestoreWith(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if second := streamedBytes(t, dst, cal); !bytes.Equal(first, second) {
		t.Fatalf("second snapshot differs from the first\n got %s\nwant %s", clip(second), clip(first))
	}
}

// manyTasks renders n minimal task objects with IDs from 1, comma-separated.
func manyTasks(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"kind":0,"redundancy":1}`, i)
	}
	return b.String()
}

// TestRestoreDocumentShapes: what the restore accepts and rejects is what
// decoding the whole document into a struct does, and a rejected document
// leaves the store exactly as it was.
func TestRestoreDocumentShapes(t *testing.T) {
	tenK := manyTasks(10_000)
	// One task twice the size of the read buffer, brackets and quotes in its text.
	big := `{"id":1,"kind":3,"payload":{"word_img":"` + strings.Repeat(`]}\"[{`, 2*snapshotBufSize/6) + `"},"redundancy":1}`
	cases := []struct {
		name, doc   string
		tasks       int // restored tasks; -1: the restore must fail
		nextID      task.ID
		calibration string
	}{
		{"calibration before tasks", `{"calibration":{"k":1},"next_id":7,"tasks":[` + manyTasks(3) + `],"version":1}`, 3, 7, `{"k":1}`},
		{"unknown fields", `{"version":1,"later":{"deep":[1,{"x":"]}"}]},"tasks":[` + manyTasks(2) + `],"more":null}`, 2, 2, ""},
		{"whitespace and a trailing document", " {\n\"version\" : 1 , \"tasks\" : [ ] }\n{\"version\":99}", 0, 0, ""},
		{"null tasks", `{"version":1,"next_id":4,"tasks":null}`, 0, 4, ""},
		{"no tasks field", `{"version":1}`, 0, 0, ""},
		{"next_id below the largest task", `{"version":1,"next_id":2,"tasks":[` + manyTasks(5) + `]}`, 5, 5, ""},
		{"duplicate ID", `{"version":1,"tasks":[` + manyTasks(3) + `,{"id":2,"kind":0,"redundancy":1}]}`, -1, 0, ""},
		{"wrong version after 10k valid tasks", `{"tasks":[` + tenK + `],"version":2}`, -1, 0, ""},
		{"no version", `{"tasks":[` + manyTasks(1) + `]}`, -1, 0, ""},
		{"cut mid-task", `{"version":1,"tasks":[` + tenK[:len(tenK)-9], -1, 0, ""},
		{"cut between tasks", `{"version":1,"tasks":[` + manyTasks(4) + `,`, -1, 0, ""},
		{"cut before the closing brace", `{"version":1,"tasks":[` + manyTasks(4) + `]`, -1, 0, ""},
		{"tasks not an array", `{"version":1,"tasks":{"id":1}}`, -1, 0, ""},
		{"a task larger than the buffer", `{"version":1,"tasks":[` + big + `,{"id":2,"kind":0,"redundancy":1}]}`, 2, 2, ""},
		{"escaped keys", `{"\u0076ersion":1,"t\u0061sks":[` + manyTasks(2) + `]}`, 2, 2, ""},
		{"keys match case-sensitively", `{"version":1,"Tasks":[` + manyTasks(2) + `]}`, 0, 0, ""},
		{"null and non-canonical elements", `{"version":1,"tasks":[null, {"redundancy":1,"id":7} ]}`, 2, 7, ""},
		{"tasks twice", `{"version":1,"tasks":[` + manyTasks(2) + `],"tasks":[{"id":3}]}`, 3, 3, ""},
		{"null version", `{"version":null,"tasks":[]}`, -1, 0, ""},
		{"fractional version", `{"version":1.0,"tasks":[]}`, -1, 0, ""},
		{"trailing comma in the document", `{"version":1,"tasks":[],}`, -1, 0, ""},
		{"trailing comma in tasks", `{"version":1,"tasks":[` + manyTasks(2) + `,]}`, -1, 0, ""},
		{"leading comma", `{,"version":1}`, -1, 0, ""},
		{"missing comma", `{"version":1 "tasks":[]}`, -1, 0, ""},
		{"missing colon", `{"version" 1}`, -1, 0, ""},
		{"missing comma between tasks", `{"version":1,"tasks":[{"id":1} {"id":2}]}`, -1, 0, ""},
		{"unquoted key", `{version:1}`, -1, 0, ""},
		{"skipped field is not JSON", `{"version":1,"later":tru}`, -1, 0, ""},
		{"calibration is not JSON", `{"version":1,"calibration":{"a":}}`, -1, 0, ""},
		{"task is not JSON", `{"version":1,"tasks":[{"id":1,"kind":}]}`, -1, 0, ""},
		{"task of the wrong type", `{"version":1,"tasks":[7]}`, -1, 0, ""},
		{"mismatched brackets", `{"version":1,"tasks":[{"id":1]}}`, -1, 0, ""},
		{"control character in a string", "{\"version\":1,\"tasks\":[{\"id\":1,\"payload\":{\"word_img\":\"a\nb\"}}]}", -1, 0, ""},
		{"not an object", `[1,2]`, -1, 0, ""},
		{"not JSON", `{not json`, -1, 0, ""},
		{"empty", ``, -1, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			for _, tk := range richTasks(20) {
				s.Put(tk)
			}
			before := streamedBytes(t, s, nil)
			cal, err := s.RestoreWith(strings.NewReader(tc.doc))
			if tc.tasks < 0 {
				if err == nil {
					t.Fatal("restore accepted the document")
				}
				if after := streamedBytes(t, s, nil); !bytes.Equal(before, after) {
					t.Fatalf("failed restore (%v) changed the store", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.Len() != tc.tasks || string(cal) != tc.calibration {
				t.Fatalf("restored %d tasks and calibration %q, want %d and %q", s.Len(), cal, tc.tasks, tc.calibration)
			}
			if got := task.ID(s.nextID.Load()); got != tc.nextID {
				t.Fatalf("allocator at %d after restore, want %d", got, tc.nextID)
			}
		})
	}
}

// maxWrite records the largest single Write and how many there were.
type maxWrite struct{ largest, writes, total int }

func (m *maxWrite) Write(p []byte) (int, error) {
	m.largest = max(m.largest, len(p))
	m.writes++
	m.total += len(p)
	return len(p), nil
}

// fillPlain puts n two-answer label tasks with IDs from 1 into s.
func fillPlain(s *Store, n int) {
	for i := 1; i <= n; i++ {
		id := task.ID(i)
		tk := &task.Task{
			ID: id, Kind: task.Label, Payload: task.Payload{ImageID: i, Detail: &task.Detail{Taboo: []int{1, 2}}}, Redundancy: 3,
			CreatedAt: task.StampOf(t0),
		}
		tk.SetEnded(task.Stamp{}, []task.Answer{
			{TaskID: id, WorkerID: "alice", At: task.StampOf(t0), Words: []int{i, 7}},
			{TaskID: id, WorkerID: "bob", At: task.StampOf(t0), Words: []int{i, 9}},
		})
		s.Put(tk)
	}
}

// TestSnapshotStreamsInBoundedWrites: the writer hands the document over a
// buffer at a time — never the table's worth of bytes in one Write, which is
// what encoding the whole document first did.
func TestSnapshotStreamsInBoundedWrites(t *testing.T) {
	s := New()
	fillPlain(s, 20_000)
	var w maxWrite
	if err := s.Snapshot(&w); err != nil {
		t.Fatal(err)
	}
	if w.largest > snapshotBufSize {
		t.Fatalf("largest Write is %d bytes of a %d-byte snapshot; the buffer is %d", w.largest, w.total, snapshotBufSize)
	}
	if want := w.total / snapshotBufSize; w.writes < want {
		t.Fatalf("%d-byte snapshot arrived in %d writes, want at least %d", w.total, w.writes, want)
	}
}

// TestRestoreAllocatesStateNotDocument: restoring allocates what it keeps
// plus decoding scratch, and the scratch holds neither a copy of the document
// nor anything per field. Buffering the document before decoding it costs its
// size again at the very least; decoding each task through encoding/json
// cost 0.40 of it (answer and word slices grown an element at a time), and
// a task map doubling its way up 0.08 (0.12 under -race). The task codec
// sizes every slice once, the table's pages are never regrown, and
// json.Decoder hands each task's text to the codec from its own buffer,
// which holds one value and the input read behind it. What is left is that
// buffer and the envelope's keys: 3 864 B of this 8.2 MB document of
// two-answer tasks, 0.0005 of it, and 4 120 B under -race, where a 64 KiB
// read-ahead buffer cost 0.008 and 0.047.
func TestRestoreAllocatesStateNotDocument(t *testing.T) {
	src := New()
	fillPlain(src, 20_000)
	doc := streamedBytes(t, src, nil)

	dst := New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := dst.Restore(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("document %d B, allocated %d B, retained %d B, scratch %d B", len(doc), allocated, retained, allocated-retained)
	share := int64(50)
	if raceEnabled {
		share = 10
	}
	if scratch := allocated - retained; scratch > int64(len(doc))/share {
		t.Fatalf("restore of a %d-byte snapshot allocated %d bytes beyond the %d it retains; want under 1/%d of the document",
			len(doc), scratch, retained, share)
	}
	// Alive across both readings, so the difference is what dst holds.
	runtime.KeepAlive(src)
	runtime.KeepAlive(doc)
	runtime.KeepAlive(dst)
}
