package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/iotest"

	"humancomp/internal/task"
)

// decoderRestore is the reference restore: json.Decoder reads the
// document a token at a time and decodes each task by reflection into a
// refTask, which becomes a task.Task or errTooRedundant. Restore reads the
// envelope through the same calls and hands each task's text to the task
// codec instead.
func decoderRestore(doc []byte) (tasks map[task.ID]*task.Task, version int, nextID task.ID, calibration json.RawMessage, err error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	tasks = make(map[task.ID]*task.Task)
	tok, err := dec.Token()
	if err == nil && tok != json.Delim('{') {
		err = errors.New("not an object")
	}
	for err == nil && dec.More() {
		if tok, err = dec.Token(); err != nil {
			break
		}
		switch tok {
		case "version":
			err = dec.Decode(&version)
		case "next_id":
			err = dec.Decode(&nextID)
		case "calibration":
			err = dec.Decode(&calibration)
		case "tasks":
			if tok, err = dec.Token(); err != nil || tok == nil {
				break
			}
			if tok != json.Delim('[') {
				err = errors.New("tasks is not an array")
				break
			}
			for err == nil && dec.More() {
				var r refTask
				if err = dec.Decode(&r); err != nil {
					break
				}
				var t *task.Task
				if t, err = r.task(); err != nil {
					break
				}
				if _, dup := tasks[t.ID]; dup {
					err = fmt.Errorf("duplicate task ID %d", t.ID)
				}
				tasks[t.ID] = t
			}
			if err == nil {
				_, err = dec.Token()
			}
		default:
			var skipped json.RawMessage
			err = dec.Decode(&skipped)
		}
	}
	if err == nil {
		_, err = dec.Token()
	}
	if err == nil && version != snapshotVersion {
		err = fmt.Errorf("unsupported snapshot version %d", version)
	}
	return tasks, version, nextID, calibration, err
}

// FuzzRestoreMatchesDecoder: on any bytes, Restore accepts exactly the
// documents decoderRestore accepts and builds the same tasks, allocator
// position and sidecar from them — so a task restored through the codec,
// wherever json.Decoder finds it in the document, is the task reflection
// decodes there, and the paged table holds what the reference's map holds.
func FuzzRestoreMatchesDecoder(f *testing.F) {
	src := New()
	for _, tk := range richTasks(4) {
		src.Put(tk)
	}
	var snap bytes.Buffer
	if err := src.SnapshotWith(&snap, json.RawMessage(messyCalibration)); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()/2])
	for _, s := range []string{
		`{"calibration":{"k":1},"next_id":7,"tasks":[` + manyTasks(3) + `],"version":1}`,
		`{"version":1,"later":{"deep":[1,{"x":"]}"}]},"tasks":[` + manyTasks(2) + `],"more":null}`,
		" {\n\"version\" : 1 , \"tasks\" : [ ] }\n{\"version\":99}",
		`{"version":1,"next_id":4,"tasks":null}`,
		`{"version":1,"tasks":[null, {"redundancy":1,"id":7} ]}`,
		`{"version":1,"tasks":[` + manyTasks(2) + `],"tasks":[{"id":3}]}`,
		`{"version":1,"tasks":[],}`, `{,"version":1}`, `{"version":1 "tasks":[]}`, `{"version" 1}`,
		`{"version":1,"tasks":[{"id":1} {"id":2}]}`, `{"version":1,"tasks":[{"id":1]}}`,
		`{"version":1,"later":tru}`, `{"version":1,"calibration":null}`, `{"version":1,"tasks":[7]}`,
		`{"version":1,"tasks":{"id":1}}`, `{"version":1.0}`, `[1,2]`, `{}`, `{`, ``, `nul`,
		// Every ID the table must take: the extremes, negative IDs, zero,
		// both sides of a page boundary, IDs pages apart, and a duplicate
		// a page's width below zero.
		`{"version":1,"tasks":[{"id":-4}]}`,
		`{"version":1,"next_id":-7,"tasks":[{"id":1024},{"id":-9223372036854775808},{"id":1023},{"id":4611686018427387904},{"id":0},{"id":9223372036854775807},{"id":1},{"id":-4}]}`,
		`{"version":1,"tasks":[{"id":-1025},{"id":-1},{"id":-1025}]}`,
		// A redundancy a task cannot hold is refused by name.
		`{"version":1,"tasks":[{"id":1,"redundancy":65535},{"id":2,"redundancy":65536}]}`,
		`{"version":1,"tasks":[{"id":1,"redundancy":-3}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		wantTasks, _, wantNext, wantCal, wantErr := decoderRestore(doc)
		s := New()
		gotCal, gotErr := s.RestoreWith(bytes.NewReader(doc))
		if !sameOutcome(gotErr, wantErr) {
			t.Fatalf("document %q\nRestore: %v\njson.Decoder: %v", doc, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		restored := s.Tasks(AnyStatus)
		gotTasks := make(map[task.ID]*task.Task)
		for i, tk := range restored {
			if i > 0 && tk.ID <= restored[i-1].ID {
				t.Fatalf("document %q: restored tasks out of ID order at %d", doc, tk.ID)
			}
			gotTasks[tk.ID] = tk
		}
		if !reflect.DeepEqual(gotTasks, wantTasks) || !bytes.Equal(gotCal, wantCal) {
			t.Fatalf("document %q\nRestore: %d tasks, sidecar %q\njson.Decoder: %d tasks, sidecar %q", doc, len(gotTasks), gotCal, len(wantTasks), wantCal)
		}
		counts := make(map[task.Status]int)
		for _, tk := range wantTasks {
			counts[tk.Status]++
		}
		for st, n := range counts {
			if got := s.Count(st); st != AnyStatus && got != n {
				t.Fatalf("document %q: Count(%v) = %d, want %d", doc, st, got, n)
			}
		}
		if s.Len() != len(wantTasks) {
			t.Fatalf("document %q: Len = %d, want %d", doc, s.Len(), len(wantTasks))
		}
		var maxID task.ID
		for id := range wantTasks {
			maxID = max(maxID, id)
		}
		if got, want := task.ID(s.nextID.Load()), max(wantNext, maxID); got != want {
			t.Fatalf("document %q: allocator at %d, want %d", doc, got, want)
		}
		// A reader that delivers a byte at a time exercises every refill.
		if _, err := New().RestoreWith(iotest.OneByteReader(bytes.NewReader(doc))); err != nil {
			t.Fatalf("document %q restores whole but not a byte at a time: %v", doc, err)
		}
	})
}
