package store

import (
	"encoding/json"
	"strconv"

	"humancomp/internal/jsonx"
	"humancomp/internal/task"
)

// The WAL record codec: Event's half of the hand-written storage codec in
// internal/task, under the same rule. appendEvent writes json.Marshal's
// bytes, so a record is the record every earlier version wrote; decodeEvent
// reads those bytes in place and hands anything else to json.Unmarshal, so
// what replays and what is refused are what they always were.

// appendEvent appends e's JSON encoding to b: byte for byte json.Marshal(e),
// its error included (an event holding a timestamp outside years 0–9999).
func appendEvent(b []byte, e *Event) ([]byte, error) {
	if out, ok := appendCanonicalEvent(b, e); ok {
		return out, nil
	}
	doc, err := json.Marshal(e)
	return append(b, doc...), err
}

func appendCanonicalEvent(b []byte, e *Event) (_ []byte, ok bool) {
	b = append(b, `{"kind":`...)
	b = jsonx.AppendString(b, string(e.Kind))
	b = append(b, `,"at":`...)
	if b, ok = jsonx.AppendTime(b, e.At); !ok {
		return b, false
	}
	if e.Task != nil {
		b = append(b, `,"task":`...)
		if b, ok = task.AppendTask(b, e.Task); !ok {
			return b, false
		}
	}
	if e.TaskID != 0 {
		b = append(b, `,"task_id":`...)
		b = strconv.AppendInt(b, int64(e.TaskID), 10)
	}
	if e.Answer != nil {
		b = append(b, `,"answer":`...)
		if b, ok = task.AppendAnswer(b, e.Answer); !ok {
			return b, false
		}
	}
	if e.Gold != nil {
		b = append(b, `,"gold":`...)
		if b, ok = task.AppendAnswer(b, e.Gold); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// eventBox is where a canonical record's task, answer and gold answer are
// decoded: storage the reader owns and overwrites with the next record,
// because every consumer copies out what it keeps (the store a submitted
// task's record, Task.Record an answer, the gold table its answer) and none
// keeps the pointer. What the decoded values point to — a payload's
// Detail, a task's answers — is allocated afresh each record, and the
// store keeps it.
type eventBox struct {
	task         task.Task
	answer, gold task.Answer
}

// decodeEvent decodes one record payload: json.Unmarshal into a zero Event,
// on every input. A payload in the form appendEvent writes is decoded in
// place, its Task, Answer and Gold into box, and any other is handed to
// encoding/json unchanged.
func decodeEvent(doc []byte, box *eventBox) (Event, error) {
	var e Event
	c := jsonx.NewCanon(doc)
	c.Lit(`{"kind":`)
	switch {
	case c.Try(`"submit"`):
		e.Kind = EventSubmit
	case c.Try(`"answer"`):
		e.Kind = EventAnswer
	case c.Try(`"cancel"`):
		e.Kind = EventCancel
	case c.Try(`"finish"`):
		e.Kind = EventFinish
	default:
		e.Kind = EventKind(c.Str())
	}
	c.Lit(`,"at":`)
	c.Time(&e.At)
	if c.Try(`,"task":`) {
		e.Task = &box.task
		task.DecodeTask(&c, e.Task)
	}
	if c.Try(`,"task_id":`) {
		e.TaskID = task.ID(c.Int64())
	}
	if c.Try(`,"answer":`) {
		e.Answer = &box.answer
		task.DecodeAnswer(&c, e.Answer)
	}
	if c.Try(`,"gold":`) {
		e.Gold = &box.gold
		task.DecodeAnswer(&c, e.Gold)
	}
	c.Lit("}")
	if c.Done() {
		return e, nil
	}
	return unmarshalEvent(doc)
}

// unmarshalEvent is the one way a record reaches encoding/json. (Its own
// function, so that the Event it gives json.Unmarshal a pointer to is not
// the one the canonical path would then have to allocate.)
func unmarshalEvent(doc []byte) (e Event, err error) {
	err = json.Unmarshal(doc, &e)
	return e, err
}
