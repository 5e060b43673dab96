// Package jsonx provides UnmarshalStrict: encoding/json.Unmarshal plus
// the unknown-field rejection of json.Decoder.DisallowUnknownFields,
// without constructing a Decoder per call.
//
// The stdlib strict path is expensive on a hot server: every request
// allocates a Decoder and the Decoder's internal buffer re-copies the
// whole body before a single field is parsed. json.Unmarshal avoids both
// (its decode machinery is recycled through an internal pool) but offers
// no strictness. UnmarshalStrict recovers it in two passes: Unmarshal
// first — which guarantees the input is valid JSON — then a zero-alloc
// scan of the raw bytes that checks every object key against a cached,
// reflection-derived spec of the target type. Field matching follows
// encoding/json's rules (tag name, else field name; exact match, else
// case-insensitive), and nesting is validated exactly as the Decoder
// would: struct fields recursively, map values against the element type,
// opaque types (json.Unmarshaler, TextUnmarshaler, interfaces,
// RawMessage) not at all.
//
// Keys containing escape sequences are rare enough that the scanner does
// not decode them; it falls back to the stdlib Decoder for that request,
// so behavior stays bit-identical to DisallowUnknownFields in every case.
//
// canon.go holds the other place encoding/json is kept as the authority
// while being kept off a hot path: the pieces the storage codecs
// (internal/task, internal/store) are built from.
package jsonx

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
)

// UnmarshalStrict parses data into v like json.Unmarshal and additionally
// rejects object keys that do not correspond to any field of the target,
// matching the behavior of json.Decoder.DisallowUnknownFields.
func UnmarshalStrict(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	sp := specOf(reflect.TypeOf(v))
	if sp == nil {
		return nil
	}
	s := scanner{data: data}
	err := s.validate(sp)
	if err == errEscapedKey {
		return slowStrict(data, v)
	}
	return err
}

// slowStrict re-validates with the stdlib Decoder; taken only when the
// scanner meets an escaped object key. v is already populated by the
// Unmarshal in UnmarshalStrict, so the decode target here is a throwaway
// of the same type whose only job is to surface the unknown-field error.
func slowStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	fresh := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if err := dec.Decode(fresh); err != nil {
		return err
	}
	// The fast path (json.Unmarshal) rejects trailing data after the first
	// value; keep the fallback on the same contract.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("json: trailing data after top-level value")
	}
	return nil
}

// spec describes how to validate one JSON value position. A nil *spec
// means "opaque": any shape is accepted there without descending.
type spec struct {
	// fields maps the exact JSON names of a struct's fields to the spec
	// of each field's value; non-nil only for struct targets.
	fields map[string]*spec
	// elem validates slice/array elements and map values.
	elem *spec
	// isMap distinguishes a map target (keys unchecked, values checked)
	// from a struct target (keys checked).
	isMap bool
}

var specCache sync.Map // reflect.Type → *spec (possibly nil)

var (
	jsonUnmarshalerType = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	textUnmarshalerType = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
)

// specOf returns the cached validation spec for t (a pointer type as
// passed to Unmarshal, or any nested type), building it on first use.
func specOf(t reflect.Type) *spec {
	if t == nil {
		return nil
	}
	if cached, ok := specCache.Load(t); ok {
		sp, _ := cached.(*spec)
		return sp
	}
	sp := buildSpec(t, map[reflect.Type]*spec{})
	specCache.Store(t, sp)
	return sp
}

// buildSpec derives the spec for t. seen breaks recursive type cycles:
// a type already under construction reuses its placeholder.
func buildSpec(t reflect.Type, seen map[reflect.Type]*spec) *spec {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if sp, ok := seen[t]; ok {
		return sp
	}
	// Types with custom decoding keep full authority over their raw
	// bytes; the Decoder performs no unknown-field checks inside them.
	if t.Implements(jsonUnmarshalerType) || reflect.PointerTo(t).Implements(jsonUnmarshalerType) ||
		t.Implements(textUnmarshalerType) || reflect.PointerTo(t).Implements(textUnmarshalerType) {
		return nil
	}
	switch t.Kind() {
	case reflect.Struct:
		sp := &spec{fields: map[string]*spec{}}
		seen[t] = sp
		addStructFields(sp, t, seen)
		return sp
	case reflect.Slice, reflect.Array:
		if t == reflect.TypeOf(json.RawMessage(nil)) {
			return nil
		}
		elem := buildSpec(t.Elem(), seen)
		if elem == nil {
			return nil
		}
		return &spec{elem: elem}
	case reflect.Map:
		elem := buildSpec(t.Elem(), seen)
		if elem == nil {
			return nil
		}
		return &spec{elem: elem, isMap: true}
	default:
		// Scalars, interfaces, funcs, chans: nothing to check below here.
		return nil
	}
}

// addStructFields registers t's JSON-visible fields on sp, promoting the
// fields of untagged anonymous embedded structs the way encoding/json
// does (shallower fields win; we only need key membership, so simple
// no-overwrite merging is sufficient).
func addStructFields(sp *spec, t reflect.Type, seen map[reflect.Type]*spec) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if f.Anonymous && name == "" {
			ft := f.Type
			for ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			// Embedded structs promote their fields even when the embedded
			// type itself is unexported (the promoted fields are exported).
			if ft.Kind() == reflect.Struct {
				addStructFields(sp, ft, seen)
				continue
			}
		}
		if !f.IsExported() {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if _, exists := sp.fields[name]; !exists {
			sp.fields[name] = buildSpec(f.Type, seen)
		}
	}
}

// errEscapedKey signals the scanner met a key containing a backslash
// escape; UnmarshalStrict re-validates through the stdlib Decoder.
var errEscapedKey = fmt.Errorf("jsonx: escaped key")

// scanner walks raw bytes already known to be valid JSON (Unmarshal
// succeeded), so it can skip values with simple bracket counting and
// never needs to diagnose syntax errors.
type scanner struct {
	data []byte
	i    int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// validate checks the value starting at the current position against sp.
func (s *scanner) validate(sp *spec) error {
	s.skipSpace()
	if s.i >= len(s.data) {
		return nil
	}
	switch s.data[s.i] {
	case '{':
		if sp == nil || (sp.fields == nil && !sp.isMap) {
			s.skipValue()
			return nil
		}
		return s.validateObject(sp)
	case '[':
		if sp == nil || sp.elem == nil || sp.isMap {
			s.skipValue()
			return nil
		}
		return s.validateArray(sp.elem)
	default:
		s.skipValue()
		return nil
	}
}

// validateObject checks each key of the object at the current position
// against sp.fields (struct target) or accepts all keys and validates
// values against sp.elem (map target).
func (s *scanner) validateObject(sp *spec) error {
	s.i++ // consume '{'
	for {
		s.skipSpace()
		if s.i >= len(s.data) {
			return nil
		}
		if s.data[s.i] == '}' {
			s.i++
			return nil
		}
		if s.data[s.i] == ',' {
			s.i++
			s.skipSpace()
		}
		key, escaped := s.readKey()
		if escaped {
			return errEscapedKey
		}
		var fieldSpec *spec
		if sp.isMap {
			fieldSpec = sp.elem
		} else {
			var known bool
			fieldSpec, known = lookupField(sp.fields, key)
			if !known {
				return fmt.Errorf("json: unknown field %q", key)
			}
		}
		s.skipSpace()
		if s.i < len(s.data) && s.data[s.i] == ':' {
			s.i++
		}
		if err := s.validate(fieldSpec); err != nil {
			return err
		}
	}
}

// lookupField resolves a raw key against a field map with encoding/json's
// matching rules: exact name first, then a case-insensitive scan. The
// exact lookup uses the map[string(bytes)] form the compiler keeps
// allocation-free.
func lookupField(fields map[string]*spec, key []byte) (*spec, bool) {
	if sp, ok := fields[string(key)]; ok {
		return sp, true
	}
	for name, sp := range fields {
		if len(name) == len(key) && strings.EqualFold(name, string(key)) {
			return sp, true
		}
	}
	return nil, false
}

// validateArray checks each element of the array at the current position.
func (s *scanner) validateArray(elem *spec) error {
	s.i++ // consume '['
	for {
		s.skipSpace()
		if s.i >= len(s.data) {
			return nil
		}
		switch s.data[s.i] {
		case ']':
			s.i++
			return nil
		case ',':
			s.i++
		default:
			if err := s.validate(elem); err != nil {
				return err
			}
		}
	}
}

// readKey consumes the string at the current position and returns its raw
// bytes (escapes included) plus whether any escape was present.
func (s *scanner) readKey() ([]byte, bool) {
	if s.i >= len(s.data) || s.data[s.i] != '"' {
		// Valid JSON objects always have string keys; being here means the
		// object ended — return an empty key the caller's loop will pass
		// over on the next '}' check.
		return nil, false
	}
	s.i++
	start := s.i
	escaped := false
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case '\\':
			escaped = true
			s.i += 2
		case '"':
			key := s.data[start:s.i]
			s.i++
			return key, escaped
		default:
			s.i++
		}
	}
	return s.data[start:], escaped
}

// skipValue advances past one complete JSON value without validating it.
func (s *scanner) skipValue() {
	s.skipSpace()
	depth := 0
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case '"':
			s.skipString()
			if depth == 0 {
				return
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth <= 0 {
				s.i++
				return
			}
		case ',':
			if depth == 0 {
				return
			}
		}
		s.i++
		if depth == 0 {
			// A scalar: run to its delimiter.
			for s.i < len(s.data) {
				switch s.data[s.i] {
				case ',', '}', ']', ' ', '\t', '\n', '\r':
					return
				}
				s.i++
			}
			return
		}
	}
}

// skipString consumes the string at the current position.
func (s *scanner) skipString() {
	s.i++ // consume opening quote
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return
		default:
			s.i++
		}
	}
}
