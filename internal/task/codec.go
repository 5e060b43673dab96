package task

import (
	"encoding/json"
	"fmt"
	"strconv"

	"humancomp/internal/jsonx"
	"humancomp/internal/vocab"
)

// The storage codec. A task record is written and read millions of times
// by a node's storage path — every WAL append, every replayed record, every
// task of every checkpoint and restore — and always in one shape: the one
// encoding/json gives taskDoc's struct tags. These functions are that shape
// written out by hand (see jsonx.Canon for the rule they follow). The
// encoders produce encoding/json's bytes exactly, so the formats on disk
// and on the replication wire are unchanged; the decoders allocate what the
// decoded value keeps and nothing else. Task and View are JSON through
// this codec wherever they go, HTTP bodies included: GET /v1/tasks/{id} is
// this encoder's bytes plus json.Encoder's newline, and a submit body is
// read with ReadPayload, ReadAnswer and ReadKindName.
//
// A field added to Task, Answer, Payload or Detail must be added here, in
// struct order, and to taskDoc; FuzzTaskCodecMatchesStdlib fails until it
// is.

// taskDoc is a task in the form encoding/json reads and writes: the field
// list, order and tags that define the task's encoding. The codec hands it
// to encoding/json for the input it does not read itself.
type taskDoc struct {
	ID         ID       `json:"id"`
	Kind       Kind     `json:"kind"`
	Status     Status   `json:"status"`
	CreatedAt  Stamp    `json:"created_at"`
	DoneAt     Stamp    `json:"done_at,omitzero"`
	Payload    Payload  `json:"payload"`
	Redundancy int      `json:"redundancy"`
	Priority   int      `json:"priority"`
	Answers    []Answer `json:"answers,omitempty"`
}

// AppendJSON appends t's JSON encoding to b: byte for byte what
// json.Marshal makes of it as a taskDoc, including its error for a task
// encoding/json cannot encode (a timestamp outside years 0–9999).
func (t *Task) AppendJSON(b []byte) ([]byte, error) {
	if out, ok := AppendTask(b, t); ok {
		return out, nil
	}
	doc, err := json.Marshal(t.doc())
	return append(b, doc...), err
}

func (t *Task) doc() taskDoc {
	return taskDoc{
		ID: t.ID, Kind: t.Kind, Status: t.Status, CreatedAt: t.CreatedAt, DoneAt: t.DoneAt(),
		Payload: t.Payload, Redundancy: int(t.Redundancy), Priority: t.Priority, Answers: t.Answers(),
	}
}

// unmarshalDoc decodes doc with json.Unmarshal into d, the task to start
// from, and makes *t the task it then holds; on an error, or a redundancy
// t cannot hold, *t is the zero Task.
func (t *Task) unmarshalDoc(doc []byte, d taskDoc) error {
	err := json.Unmarshal(doc, &d)
	if err == nil && (d.Redundancy < 0 || d.Redundancy > MaxRedundancy) {
		err = fmt.Errorf("task %d: field redundancy holds %d: %w", d.ID, d.Redundancy, errTooRedundant)
	}
	if err != nil {
		*t = Task{}
		return err
	}
	*t = Task{
		ID: d.ID, Kind: d.Kind, Status: d.Status, Redundancy: uint16(d.Redundancy),
		CreatedAt: d.CreatedAt, Payload: d.Payload, Priority: d.Priority,
	}
	t.SetEnded(d.DoneAt, d.Answers)
	return nil
}

// DecodeJSON replaces *t with the task encoded in doc: json.Unmarshal into
// a zero taskDoc, on every input, and a task that holds what it decoded. A
// document in the form AppendJSON writes is decoded in place; any other is
// handed to encoding/json unchanged. A redundancy a Task cannot hold,
// below zero or above MaxRedundancy, is refused with an error that names
// it and wraps ErrBadRedundancy. On an error *t is the zero Task.
func (t *Task) DecodeJSON(doc []byte) error {
	c := jsonx.NewCanon(doc)
	DecodeTask(&c, t)
	if c.Done() {
		return nil
	}
	return t.unmarshalDoc(doc, taskDoc{})
}

// MarshalJSON implements json.Marshaler through AppendJSON, into one
// buffer that holds an unanswered task's encoding without growing.
func (t Task) MarshalJSON() ([]byte, error) { return t.AppendJSON(make([]byte, 0, 256)) }

// UnmarshalJSON implements json.Unmarshaler through DecodeJSON; null
// leaves t as it is. Into a task that is already set it decodes as
// encoding/json decodes into any struct, setting only the fields doc
// holds: a task whose key is repeated in its event takes the later
// encoding's fields over the earlier's.
func (t *Task) UnmarshalJSON(doc []byte) error {
	switch {
	case string(doc) == "null":
		return nil
	case *t == Task{}:
		return t.DecodeJSON(doc)
	}
	return t.unmarshalDoc(doc, t.doc())
}

// MarshalJSON implements json.Marshaler: a view encodes as its task.
func (v View) MarshalJSON() ([]byte, error) { return Task(v).MarshalJSON() }

// UnmarshalJSON implements json.Unmarshaler: a view decodes as its task.
func (v *View) UnmarshalJSON(doc []byte) error { return (*Task)(v).UnmarshalJSON(doc) }

// AppendTask appends t in canonical form; ok is false when encoding/json
// would not have encoded t, and b's new tail is then garbage.
func AppendTask(b []byte, t *Task) (_ []byte, ok bool) {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(t.ID), 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendUint(b, uint64(t.Kind), 10)
	b = append(b, `,"status":`...)
	b = strconv.AppendUint(b, uint64(t.Status), 10)
	b = append(b, `,"created_at":`...)
	if b, ok = t.CreatedAt.appendJSON(b); !ok {
		return b, false
	}
	if done := t.DoneAt(); !done.IsZero() {
		b = append(b, `,"done_at":`...)
		if b, ok = done.appendJSON(b); !ok {
			return b, false
		}
	}
	b = append(b, `,"payload":`...)
	b = appendPayload(b, &t.Payload)
	b = append(b, `,"redundancy":`...)
	b = strconv.AppendUint(b, uint64(t.Redundancy), 10)
	b = append(b, `,"priority":`...)
	b = strconv.AppendInt(b, int64(t.Priority), 10)
	if answers := t.Answers(); len(answers) > 0 {
		b = append(b, `,"answers":[`...)
		for i := range answers {
			if i > 0 {
				b = append(b, ',')
			}
			if b, ok = AppendAnswer(b, &answers[i]); !ok {
				return b, false
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// Every Payload field is omitempty, so which key opens the object varies:
// keys are spelled with the comma that precedes all but the first, and
// appendKey and jsonx.Canon.Key drop it there.
func appendPayload(b []byte, p *Payload) []byte {
	b = append(b, '{')
	first := len(b)
	b = appendIntField(b, first, `,"image_id":`, p.ImageID)
	b = appendIntField(b, first, `,"image_b":`, p.ImageB)
	if d := p.Detail; d != nil {
		b = appendIntField(b, first, `,"word":`, d.Word)
		if d.WordImg != "" {
			b = jsonx.AppendString(appendKey(b, first, `,"word_img":`), d.WordImg)
		}
		if len(d.Taboo) > 0 {
			b = jsonx.AppendInts(appendKey(b, first, `,"taboo":`), d.Taboo)
		}
		b = appendIntField(b, first, `,"clip_a":`, d.ClipA)
		b = appendIntField(b, first, `,"clip_b":`, d.ClipB)
	}
	return append(b, '}')
}

func appendKey(b []byte, first int, key string) []byte {
	if len(b) == first {
		key = key[1:]
	}
	return append(b, key...)
}

func appendIntField(b []byte, first int, key string, n int) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(appendKey(b, first, key), int64(n), 10)
}

// AppendAnswer is AppendTask for an answer.
func AppendAnswer(b []byte, a *Answer) (_ []byte, ok bool) {
	b = append(b, `{"task_id":`...)
	b = strconv.AppendInt(b, int64(a.TaskID), 10)
	b = append(b, `,"worker_id":`...)
	b = jsonx.AppendString(b, a.WorkerID)
	b = append(b, `,"at":`...)
	if b, ok = a.At.appendJSON(b); !ok {
		return b, false
	}
	if len(a.Words) > 0 {
		b = append(b, `,"words":`...)
		b = jsonx.AppendInts(b, a.Words)
	}
	if a.Box != (vocab.Rect{}) {
		b = append(b, `,"box":{"X":`...)
		b = strconv.AppendInt(b, int64(a.Box.X), 10)
		b = append(b, `,"Y":`...)
		b = strconv.AppendInt(b, int64(a.Box.Y), 10)
		b = append(b, `,"W":`...)
		b = strconv.AppendInt(b, int64(a.Box.W), 10)
		b = append(b, `,"H":`...)
		b = strconv.AppendInt(b, int64(a.Box.H), 10)
		b = append(b, '}')
	}
	if a.Text != "" {
		b = append(b, `,"text":`...)
		b = jsonx.AppendString(b, a.Text)
	}
	if a.Choice != 0 {
		b = append(b, `,"choice":`...)
		b = strconv.AppendInt(b, int64(a.Choice), 10)
	}
	return append(b, '}'), true
}

// DecodeTask reads one canonical task from c into *t, overwriting every
// field. Whether the input was canonical is c's to report; when it was not,
// *t holds garbage.
func DecodeTask(c *jsonx.Canon, t *Task) {
	c.Lit(`{"id":`)
	t.ID = ID(c.Int64())
	c.Lit(`,"kind":`)
	t.Kind = Kind(c.Uint8())
	c.Lit(`,"status":`)
	t.Status = Status(c.Uint8())
	c.Lit(`,"created_at":`)
	t.CreatedAt = decodeStamp(c)
	var doneAt Stamp
	if c.Try(`,"done_at":`) {
		doneAt = decodeStamp(c)
	}
	c.Lit(`,"payload":`)
	t.Payload = Payload{}
	ReadPayload(c, &t.Payload)
	c.Lit(`,"redundancy":`)
	t.Redundancy = c.Uint16()
	c.Lit(`,"priority":`)
	t.Priority = c.Int()
	t.end = nil
	if c.Try(`,"answers":[`) {
		e := newAnswered(t.Redundancy)
		for more := true; more && c.OK(); more = c.Try(",") {
			e.answers = append(e.answers, Answer{})
			DecodeAnswer(c, &e.answers[len(e.answers)-1])
		}
		c.Lit("]")
		t.end = e
	}
	if !doneAt.IsZero() {
		t.ensureEnded().doneAt = doneAt
	}
	c.Lit("}")
}

// decodeStamp reads a timestamp in the form Stamp.MarshalJSON writes
// straight into a Stamp; any other form is not canonical.
func decodeStamp(c *jsonx.Canon) Stamp {
	s, ok := parseStamp(c.Quoted())
	if !ok {
		c.Fail()
	}
	return s
}

// ReadPayload reads a payload object into *p as encoding/json decodes one
// into it: a key the object holds sets its field, and the others keep
// theirs. encoding/json gives the payload a Detail as soon as it meets one
// of its keys, whatever the value, and decodes into the one it has; here
// the payload then gets a Detail of its own, holding a copy of the old one
// with those keys set, so no reader ever writes to memory it was handed.
// The keys are read into a local, so a payload without them allocates
// nothing.
func ReadPayload(c *jsonx.Canon, p *Payload) {
	c.Lit("{")
	first := true
	if c.Key(&first, `,"image_id":`) {
		p.ImageID = c.Int()
	}
	if c.Key(&first, `,"image_b":`) {
		p.ImageB = c.Int()
	}
	var d Detail
	if p.Detail != nil {
		d = *p.Detail
	}
	if readDetail(c, &first, &d) {
		p.Detail = new(Detail)
		*p.Detail = d
	}
	c.Lit("}")
}

// readDetail reads the Detail keys of a payload into *d and reports
// whether there were any.
func readDetail(c *jsonx.Canon, first *bool, d *Detail) (ok bool) {
	if c.Key(first, `,"word":`) {
		d.Word, ok = c.Int(), true
	}
	if c.Key(first, `,"word_img":`) {
		d.WordImg, ok = c.Str(), true
	}
	if c.Key(first, `,"taboo":`) {
		d.Taboo, ok = c.Ints(), true
	}
	if c.Key(first, `,"clip_a":`) {
		d.ClipA, ok = c.Int(), true
	}
	if c.Key(first, `,"clip_b":`) {
		d.ClipB, ok = c.Int(), true
	}
	return ok
}

// ReadKindName reads a string naming a task's kind, as a submit request
// spells it. A kind's own name comes back as the constant Kind.String
// returns, so reading one allocates nothing.
func ReadKindName(c *jsonx.Canon) string {
	q := c.Quoted()
	if len(q) < 2 {
		return ""
	}
	name := q[1 : len(q)-1]
	for k := Kind(0); k < numKinds; k++ {
		if s := k.String(); string(name) == s {
			return s
		}
	}
	return string(name)
}

// DecodeAnswer is DecodeTask for an answer: *a is overwritten.
func DecodeAnswer(c *jsonx.Canon, a *Answer) {
	*a = Answer{}
	ReadAnswer(c, a)
}

// ReadAnswer reads an answer object into *a as encoding/json decodes one
// into it: each of its keys may be absent, and a key the object holds sets
// its field while the others keep theirs. A stored answer holds the first
// three keys; the expected answer of a gold submit may hold any of them.
func ReadAnswer(c *jsonx.Canon, a *Answer) {
	c.Lit("{")
	first := true
	if c.Key(&first, `,"task_id":`) {
		a.TaskID = ID(c.Int64())
	}
	if c.Key(&first, `,"worker_id":`) {
		a.WorkerID = c.Str()
	}
	if c.Key(&first, `,"at":`) {
		a.At = decodeStamp(c)
	}
	if c.Key(&first, `,"words":`) {
		a.Words = c.Ints()
	}
	// The encoder leaves an empty box out; a record from before it did
	// carries one anyway, and it decodes in place like any other.
	if c.Key(&first, `,"box":{"X":`) {
		a.Box.X = c.Int()
		c.Lit(`,"Y":`)
		a.Box.Y = c.Int()
		c.Lit(`,"W":`)
		a.Box.W = c.Int()
		c.Lit(`,"H":`)
		a.Box.H = c.Int()
		c.Lit("}")
	}
	if c.Key(&first, `,"text":`) {
		a.Text = c.Str()
	}
	if c.Key(&first, `,"choice":`) {
		a.Choice = c.Int()
	}
	c.Lit("}")
}
