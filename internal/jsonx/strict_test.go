package jsonx

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

type inner struct {
	A int    `json:"a"`
	B string `json:"b,omitempty"`
}

type outer struct {
	Kind    string           `json:"kind"`
	N       int              `json:"n"`
	Nested  inner            `json:"nested"`
	PtrIn   *inner           `json:"ptr,omitempty"`
	List    []inner          `json:"list,omitempty"`
	ByName  map[string]inner `json:"by_name,omitempty"`
	Whenish time.Time        `json:"when,omitempty"`
	Raw     json.RawMessage  `json:"raw,omitempty"`
	Any     any              `json:"any,omitempty"`
	Skip    string           `json:"-"`
	NoTag   int
}

type embedded struct {
	inner
	C int `json:"c"`
}

// stdlibStrict is the reference behavior: Decoder.DisallowUnknownFields,
// with a trailing-data check so it shares UnmarshalStrict's whole-body
// contract (Unmarshal rejects trailing data; Decoder.Decode ignores it).
// It finds trailing data by asking the decoder for another token, not by
// reading past InputOffset as UnmarshalStrict does.
func stdlibStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after top-level value")
	}
	return nil
}

// TestStrictMatchesStdlib feeds the same bodies to UnmarshalStrict and to
// the stdlib strict decoder and requires both to agree on accept/reject.
func TestStrictMatchesStdlib(t *testing.T) {
	cases := []string{
		`{}`,
		`null`,
		`{"kind":"x","n":3}`,
		`{"KIND":"x"}`,                         // case-insensitive match is known
		`{"bogus":1}`,                          // unknown at top level
		`{"kind":"x","bogus":{"deep":1}}`,      // unknown with object value
		`{"nested":{"a":1,"b":"y"}}`,           // known nesting
		`{"nested":{"a":1,"zzz":2}}`,           // unknown inside nested struct
		`{"ptr":{"a":1}}`,                      // pointer target
		`{"ptr":{"oops":1}}`,                   // unknown through pointer
		`{"ptr":null}`,                         // null pointer value
		`{"list":[{"a":1},{"a":2}]}`,           // slice of structs
		`{"list":[{"a":1},{"nope":2}]}`,        // unknown in second element
		`{"by_name":{"anykey":{"a":1}}}`,       // map keys are free-form
		`{"by_name":{"k":{"weird":1}}}`,        // ...but values are checked
		`{"when":"2026-01-02T03:04:05Z"}`,      // json.Unmarshaler is opaque
		`{"raw":{"anything":["goes",1]}}`,      // RawMessage is opaque
		`{"any":{"unchecked":true}}`,           // interface{} is opaque
		`{"NoTag":5}`,                          // untagged field, Go name
		`{"notag":5}`,                          // case-insensitive Go name
		`{"Skip":"x"}`,                         // json:"-" fields do not exist
		`  {  "kind" : "s" , "n" : 1 }  `,      // whitespace everywhere
		`{"kind":"a","kind":"b"}`,              // duplicate known key
		`{"n":"notanint"}`,                     // type error from Unmarshal
		`{"kin\u0064":"x"}`,                    // escaped known key
		`{"bogu\u0073":1}`,                     // escaped unknown key
		`{"nested":{"a":1},"list":[],"n":0}`,   // several known fields
		`{"kind":"x","n":2,"tail_unknown":[]}`, // unknown after known
	}
	for _, body := range cases {
		var a, b outer
		gotFast := UnmarshalStrict([]byte(body), &a)
		gotSlow := stdlibStrict([]byte(body), &b)
		if (gotFast == nil) != (gotSlow == nil) {
			t.Errorf("UnmarshalStrict(%s) = %v, stdlib strict = %v", body, gotFast, gotSlow)
		}
		if gotFast == nil && gotSlow == nil {
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if string(aj) != string(bj) {
				t.Errorf("decoded values differ for %s: %s vs %s", body, aj, bj)
			}
		}
	}
}

func TestStrictEmbeddedPromotion(t *testing.T) {
	var e embedded
	if err := UnmarshalStrict([]byte(`{"a":1,"b":"x","c":2}`), &e); err != nil {
		t.Fatalf("promoted fields rejected: %v", err)
	}
	if e.A != 1 || e.C != 2 {
		t.Fatalf("decode = %+v", e)
	}
	if err := UnmarshalStrict([]byte(`{"a":1,"q":2}`), &e); err == nil {
		t.Fatal("unknown field beside promoted fields accepted")
	}
}

func TestStrictUnknownFieldMessage(t *testing.T) {
	var o outer
	err := UnmarshalStrict([]byte(`{"zzz":1}`), &o)
	if err == nil || !strings.Contains(err.Error(), `unknown field "zzz"`) {
		t.Fatalf("err = %v, want unknown field \"zzz\"", err)
	}
}

func TestStrictSyntaxErrorsPassThrough(t *testing.T) {
	var o outer
	if err := UnmarshalStrict([]byte(`{not json`), &o); err == nil {
		t.Fatal("syntax error accepted")
	}
	if err := UnmarshalStrict([]byte(``), &o); err == nil {
		t.Fatal("empty input accepted")
	}
	if err := UnmarshalStrict([]byte(`{"kind":"a"} trailing`), &o); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if err := UnmarshalStrict([]byte(" {\"kind\":\"a\"}\r\n\t "), &o); err != nil {
		t.Fatalf("whitespace around the value rejected: %v", err)
	}
}

func FuzzStrictMatchesStdlib(f *testing.F) {
	f.Add(`{"kind":"x","n":1,"nested":{"a":2}}`)
	f.Add(`{"unknown":true}`)
	f.Add(`{"list":[{"a":1}],"by_name":{"z":{"b":"s"}}}`)
	f.Add(`{"kind":1}`)
	f.Fuzz(func(t *testing.T, body string) {
		var a, b outer
		gotFast := UnmarshalStrict([]byte(body), &a)
		gotSlow := stdlibStrict([]byte(body), &b)
		if (gotFast == nil) != (gotSlow == nil) {
			t.Errorf("UnmarshalStrict(%q) = %v, stdlib = %v", body, gotFast, gotSlow)
		}
	})
}
