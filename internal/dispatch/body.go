package dispatch

import (
	"bytes"
	"net/http"
	"strconv"

	"humancomp/internal/jsonx"
	"humancomp/internal/task"
	"humancomp/internal/trace"
)

// The submit bodies without reflection. A submit body, single or :batch,
// is read by the task codec's readers: the request types below read their
// keys in declaration order, each present or absent, which is every body
// json.Marshal writes for them and every body bench/ sends.
// jsonx.UnmarshalStrict offers them the body first; anything else —
// whitespace, escapes, null, unknown, repeated or case-folded keys, a
// number out of range — is left to encoding/json, so a body decodes to
// the same value, and is accepted or refused with the same error, either
// way. The :batch reply is appended into the pooled buffer the same way:
// json.Encoder's bytes, without it.

// Each request type's DecodeCanonical reads the body into a copy of the
// receiver, as encoding/json decodes into an existing value — a key the
// body holds sets its field, the others keep theirs — and makes the copy
// the receiver's value only once the whole body has been read. No reader
// writes to memory the receiver points to. (Written out per type: a
// reader called through a function value would move every value it reads
// into to the heap.)

// DecodeCanonical reads a submit body without reflection (see
// jsonx.UnmarshalStrict).
func (r *SubmitRequest) DecodeCanonical(data []byte) bool {
	c, n := jsonx.NewCanon(data), *r
	if n.read(&c); !c.Done() {
		return false
	}
	*r = n
	return true
}

func (r *SubmitRequest) read(c *jsonx.Canon) {
	c.Lit("{")
	first := true
	if c.Key(&first, `,"kind":`) {
		r.Kind = task.ReadKindName(c)
	}
	if c.Key(&first, `,"payload":`) {
		task.ReadPayload(c, &r.Payload)
	}
	if c.Key(&first, `,"redundancy":`) {
		r.Redundancy = c.Int()
	}
	if c.Key(&first, `,"priority":`) {
		r.Priority = c.Int()
	}
	if c.Key(&first, `,"gold":`) {
		r.Gold = c.Bool()
	}
	if c.Key(&first, `,"expected":`) {
		// Into a copy of the answer encoding/json would decode into.
		a := new(task.Answer)
		if r.Expected != nil {
			*a = *r.Expected
		}
		task.ReadAnswer(c, a)
		r.Expected = a
	}
	c.Lit("}")
}

// DecodeCanonical reads a batch submit body without reflection.
func (r *BatchSubmitRequest) DecodeCanonical(data []byte) bool {
	c, n := jsonx.NewCanon(data), *r
	c.Lit("{")
	first := true
	if c.Key(&first, `,"tasks":`) {
		// An array reads as encoding/json decodes one into the old
		// slice: item i into its element i wherever its capacity reaches,
		// into a zero one past it, and [] into an empty slice, not nil.
		// The items get the capacity of the count of the key each opens
		// with, at most a batch's limit.
		old := r.Tasks[:cap(r.Tasks)]
		n.Tasks = make([]SubmitRequest, 0, min(bytes.Count(data, []byte(`{"kind":`)), maxBatchItems))
		if c.Lit("["); !c.Try("]") {
			for more := true; more && c.OK(); more = c.Try(",") {
				var it SubmitRequest
				if i := len(n.Tasks); i < len(old) {
					it = old[i]
				}
				it.read(&c)
				n.Tasks = append(n.Tasks, it)
			}
			c.Lit("]")
		}
	}
	if c.Lit("}"); !c.Done() {
		return false
	}
	*r = n
	return true
}

// writeSubmitResults sends a BatchSubmitResponse holding results, the
// bytes json.Encoder writes for it, under an "http.encode" child span
// (attr = status) when the request is traced.
func writeSubmitResults(e *exchange, results []BatchSubmitResult) {
	t0 := e.sh.Now()
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Write(append(appendSubmitResults(buf.AvailableBuffer(), results), '\n'))
	writeBuffer(e, http.StatusOK, buf)
	e.sh.ObserveSince("http.encode", trace.NoSpan, t0, int64(http.StatusOK))
}

// appendSubmitResults appends a BatchSubmitResponse holding results.
func appendSubmitResults(b []byte, results []BatchSubmitResult) []byte {
	b = append(b, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"status":`...)
		b = strconv.AppendInt(b, int64(r.Status), 10)
		if r.ID != 0 {
			b = append(b, `,"id":`...)
			b = strconv.AppendInt(b, int64(r.ID), 10)
		}
		if r.Error != "" {
			b = append(b, `,"error":`...)
			b = jsonx.AppendString(b, r.Error)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
