package jsonx_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"humancomp/internal/dispatch"
	"humancomp/internal/jsonx"
	"humancomp/internal/task"
	"humancomp/internal/vocab"
)

// matchStdlib decodes body into a T through UnmarshalStrict and through
// the encoding/json reference. Both values start from what the reference
// makes of prior, so a reader that decodes into a value already set is
// held to encoding/json's merge, not only its decode into a zero value.
func matchStdlib[T any](t *testing.T, prior, body []byte) {
	t.Helper()
	var got, want T
	_ = jsonx.StdlibStrict(prior, &got)
	_ = jsonx.StdlibStrict(prior, &want)
	gotErr := jsonx.UnmarshalStrict(body, &got)
	wantErr := jsonx.StdlibStrict(body, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T: UnmarshalStrict(%q) after %q = %v, stdlib = %v", got, body, prior, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: %q after %q\n UnmarshalStrict: %+v\n          stdlib: %+v", got, body, prior, got, want)
	}
}

// requestSeeds are submit bodies: what dispatch.Client and bench/ send,
// and the forms a reader must leave to encoding/json.
func requestSeeds(tb testing.TB) []string {
	at := time.Date(2026, 7, 6, 12, 0, 0, 500, time.FixedZone("", 3600))
	gold := task.Answer{WorkerID: "w<1>", At: task.StampOf(at), Words: []int{3, 4}, Box: vocab.Rect{X: 1, Y: 2, W: 3, H: 4}, Text: "é", Choice: 1}
	var seeds []string
	for _, v := range []any{
		dispatch.SubmitRequest{Kind: "label", Payload: task.Payload{ImageID: 7}, Redundancy: 3, Priority: 1},
		dispatch.SubmitRequest{Kind: "compare", Payload: task.Payload{ImageID: 7, ImageB: 8}, Redundancy: 3, Gold: true, Expected: &task.Answer{Choice: 1}},
		dispatch.SubmitRequest{Kind: "judge", Payload: task.Payload{Detail: &task.Detail{Word: 1, WordImg: "a b", Taboo: []int{-1, 2}, ClipA: 3, ClipB: 4}}, Redundancy: 1, Gold: true, Expected: &gold},
		dispatch.BatchSubmitRequest{Tasks: []dispatch.SubmitRequest{{Kind: "label", Payload: task.Payload{ImageID: 1}, Redundancy: 1}, {Kind: "nope", Redundancy: -2, Priority: 9}}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, string(b))
	}
	return append(seeds,
		// bench/'s bodies: ordered subsets of the keys.
		`{"kind":"compare","payload":{"image_id":5,"image_b":6},"redundancy":3,"priority":2}`,
		`{"tasks":[{"kind":"label","payload":{"image_id":1},"redundancy":3,"priority":0},{"kind":"label","payload":{"image_id":2},"redundancy":3,"priority":1}]}`,
		`{"expected":{"choice":0}}`, `{"expected":{"words":[12]}}`,
		`{"kind":"label","gold":true,"expected":null}`, `{"kind":"label","gold":false}`, `{"expected":{}}`,
		`{"payload":{"word":0}}`, `{"payload":{"taboo":[]}}`, `{"payload":{"taboo":null}}`, `{"payload":{"Detail":{"word":1}}}`,
		`{"KIND":"label"}`, `{"Kind":"label","Payload":{"Image_ID":1}}`, `{"Gold":true}`,
		`{"kind":"label","kind":"compare"}`, `{"tasks":[],"tasks":[{}]}`, `{"payload":{"image_id":1,"image_id":2}}`,
		`{"kind":"label"}`, `{"kind":"a\"b"}`, `{"kind":"😀"}`, "{\"kind\":\"\xff\"}",
		` {"kind":"label"}`+"\n", `{ "kind" : "label" }`, "{\"expected\":{\"words\":[1,\t2]}}",
		`{"kind":"label"}x`, `{"kind":"label"}{}`, `{"kind":"label"`,
		`{"redundancy":99999999999999999999}`, `{"priority":9223372036854775808}`, `{"priority":-9223372036854775808}`,
		`{"expected":{"task_id":18446744073709551616}}`, `{"redundancy":-0}`, `{"priority":01}`, `{"priority":1.0}`, `{"priority":1e2}`,
		`{"expected":{"at":"2026-07-06T12:00:00.5+01:00"}}`, `{"expected":{"at":"2026-13-06T12:00:00Z"}}`,
		`{"expected":{"box":{"X":1,"Y":2,"W":3,"H":4}}}`, `{"expected":{"box":{"X":1}}}`, `{"expected":{"box":{}}}`,
		`{"tasks":[]}`, `{"tasks":null}`, `{"tasks":[{}]}`, `{}`, `null`, `[]`, `""`, ``)
}

// FuzzRequestsMatchStdlib: the submit body types decode through
// UnmarshalStrict — their canonical readers first — to what encoding/json
// makes of it, accepting and refusing the same bodies, into a zero value
// and into one a previous body already set.
func FuzzRequestsMatchStdlib(f *testing.F) {
	seeds := requestSeeds(f)
	for _, s := range seeds {
		f.Add("", s)
	}
	// Merges: a body with fewer keys, items or Detail fields than the one
	// before it.
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
		f.Add(s, s)
	}
	f.Add(`{"tasks":[{"kind":"locate","payload":{"image_id":1,"word":2},"gold":true,"expected":{"words":[1]}},{"redundancy":4},{}]}`,
		`{"tasks":[{"payload":{"taboo":[5]},"expected":{"choice":1}},{"kind":"label"}]}`)
	f.Add(`{"kind":"label","gold":true,"expected":{"words":[1,2],"text":"t"}}`, `{"expected":{"words":[3]}}`)
	f.Fuzz(func(t *testing.T, prior, body string) {
		p, b := []byte(prior), []byte(body)
		matchStdlib[dispatch.SubmitRequest](t, p, b)
		matchStdlib[dispatch.BatchSubmitRequest](t, p, b)
	})
}
