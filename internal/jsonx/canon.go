// Package jsonx holds UnmarshalStrict, the strict decode every request
// body goes through, and the canonical form the storage codecs
// (internal/task, internal/store) are built from.
//
// The canonical form of a value is the byte sequence encoding/json writes
// for it: no whitespace, struct fields in declaration order, omitempty
// fields absent, integers in plain decimal, strings escaped the way
// json.Marshal escapes them. The storage path (WAL records, snapshot tasks)
// reads and writes nothing else, so it gets hand-written codecs built from
// the pieces below instead of reflection: the Append functions write the
// canonical form, a Canon reads it. Neither is a JSON implementation. An
// Append function that cannot reproduce encoding/json says so, a Canon that
// meets any byte it does not expect says so, and the caller hands the whole
// value to encoding/json, so results are the stdlib's on every input.
//
// The submit bodies that become those records are read the same way: a request type with a reader for its canonical form,
// or for any subset of its keys in order, is offered the body first by
// UnmarshalStrict, and every other body goes to encoding/json. Every
// client in the module sends such bodies.
package jsonx

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendString appends s as a JSON string, byte for byte what json.Marshal
// writes: HTML-sensitive characters, control characters, U+2028 and U+2029
// escaped, invalid UTF-8 replaced by \ufffd.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendTime appends t as time.Time.MarshalJSON writes it. ok is false
// where MarshalJSON returns an error instead (a year outside 0–9999, a zone
// offset of a day or more).
func AppendTime(b []byte, t time.Time) (_ []byte, ok bool) {
	b = append(b, '"')
	start := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[start+len("2006")] != '-' {
		return b, false
	}
	if b[len(b)-1] != 'Z' {
		zone := b[len(b)-len("Z07:00"):]
		if zone[0] != '+' && zone[0] != '-' || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			return b, false
		}
	}
	return append(b, '"'), true
}

// AppendWall appends, as time.Time.MarshalJSON writes it, the instant
// whose clock reads wall's UTC fields in the zone off minutes east of UTC,
// with no time.Location built for it. ok is false where MarshalJSON
// returns an error instead (a year outside 0–9999, an offset of a day or
// more).
func AppendWall(b []byte, wall time.Time, off int) (_ []byte, ok bool) {
	b = append(b, '"')
	start := len(b)
	b = wall.AppendFormat(b, time.RFC3339Nano) // ends in Z: wall is in UTC
	if b[start+len("2006")] != '-' {
		return b, false
	}
	if off == 0 {
		return append(b, '"'), true
	}
	sign := byte('+')
	if off < 0 {
		sign, off = '-', -off
	}
	h, m := off/60, off%60
	if h >= 24 {
		return b, false
	}
	return append(b[:len(b)-1], sign, '0'+byte(h/10), '0'+byte(h%10), ':', '0'+byte(m/10), '0'+byte(m%10), '"'), true
}

// AppendInts appends v as a JSON array of integers.
func AppendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, n := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

// Canon reads a value in canonical form from the front of a byte slice, one
// expected piece at a time. The first piece that is not what the canonical
// encoder would have written there marks the input non-canonical; every
// later call is then a no-op returning zero, so a decoder reads straight
// through and asks OK (or Done) once at the end. Whatever it decoded from a
// non-canonical input is to be thrown away.
type Canon struct {
	b   []byte
	bad bool
}

// NewCanon returns a reader over b. Nothing it returns aliases b.
func NewCanon(b []byte) Canon { return Canon{b: b} }

// OK reports whether everything read so far was canonical.
func (c *Canon) OK() bool { return !c.bad }

// Done reports whether the input was canonical and has been read to its end.
func (c *Canon) Done() bool { return !c.bad && len(c.b) == 0 }

// Try consumes lit if the input continues with it and reports whether it
// did: the test for an omitempty field.
func (c *Canon) Try(lit string) bool {
	if c.bad || len(c.b) < len(lit) || string(c.b[:len(lit)]) != lit {
		return false
	}
	c.b = c.b[len(lit):]
	return true
}

// Key consumes key if the input continues with it and reports whether it
// did: the test for a key of an object whose keys may each be absent. key
// is spelled with the comma that precedes every key but an object's first,
// and *first, true until a key has been read, says whether to drop it.
func (c *Canon) Key(first *bool, key string) bool {
	if *first {
		key = key[1:]
	}
	if !c.Try(key) {
		return false
	}
	*first = false
	return true
}

// Lit consumes lit, which must come next.
func (c *Canon) Lit(lit string) {
	if !c.Try(lit) {
		c.bad = true
	}
}

// Fail marks the input non-canonical: for a caller that parses a piece
// itself (see Quoted) and finds it is not what the encoder writes.
func (c *Canon) Fail() { c.bad = true }

// Bool consumes true or false.
func (c *Canon) Bool() bool {
	if c.Try("true") {
		return true
	}
	c.Lit("false")
	return false
}

// Int64 consumes a decimal integer as strconv.AppendInt writes it: an
// optional minus sign, no leading zeros, no fraction or exponent.
func (c *Canon) Int64() int64 {
	if c.bad {
		return 0
	}
	b := c.b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	i := 0
	var n uint64
	for ; i < len(b) && b[i]-'0' <= 9 && i < 19; i++ { // 19 digits cannot overflow a uint64
		n = n*10 + uint64(b[i]-'0')
	}
	switch {
	case i == 0,
		b[0] == '0' && (i > 1 || neg),
		i < len(b) && b[i]-'0' <= 9,
		n > 1<<63 || n == 1<<63 && !neg:
		c.bad = true
		return 0
	}
	c.b = b[i:]
	if neg {
		return -int64(n)
	}
	return int64(n)
}

// Int is Int64 for a value that must fit an int.
func (c *Canon) Int() int {
	n := c.Int64()
	if int64(int(n)) != n {
		c.bad = true
		return 0
	}
	return int(n)
}

// Uint8 is Int64 for a value that must fit a uint8: one outside 0–255 is
// not read, so encoding/json, which refuses it, decides the record.
func (c *Canon) Uint8() uint8 {
	n := c.Int64()
	if uint64(n) > 255 {
		c.bad = true
		return 0
	}
	return uint8(n)
}

// Uint16 is Uint8 for a value that must fit a uint16.
func (c *Canon) Uint16() uint16 {
	n := c.Int64()
	if uint64(n) > 1<<16-1 {
		c.bad = true
		return 0
	}
	return uint16(n)
}

// rawString consumes a quoted string holding no escape, no control byte and
// only valid UTF-8 — so its contents are its value — and returns the
// contents as a sub-slice of the input.
func (c *Canon) rawString() []byte {
	if c.bad || len(c.b) == 0 || c.b[0] != '"' {
		c.bad = true
		return nil
	}
	b := c.b[1:]
	ascii := true
	for i := 0; i < len(b); i++ {
		switch ch := b[i]; {
		case ch == '"':
			if !ascii && !utf8.Valid(b[:i]) {
				c.bad = true
				return nil
			}
			c.b = b[i+1:]
			return b[:i]
		case ch < ' ' || ch == '\\':
			c.bad = true
			return nil
		case ch >= utf8.RuneSelf:
			ascii = false
		}
	}
	c.bad = true
	return nil
}

// Str consumes a string written without escapes; one with escapes is left
// to encoding/json.
func (c *Canon) Str() string { return string(c.rawString()) }

// Quoted consumes a string written without escapes and returns it, quotes
// included, as a sub-slice of the input, for the caller to parse.
func (c *Canon) Quoted() []byte {
	start := c.b
	raw := c.rawString()
	if c.bad {
		return nil
	}
	return start[:len(raw)+2]
}

// Time consumes a timestamp into t through time.Time.UnmarshalJSON — the
// function encoding/json calls — so the decoded value, zone included, is
// the stdlib's.
func (c *Canon) Time(t *time.Time) {
	if q := c.Quoted(); c.bad || t.UnmarshalJSON(q) != nil {
		c.bad = true
	}
}

// Ints consumes a non-empty array of integers into a slice of exactly its
// length. (An omitempty encoder never writes the empty array.)
func (c *Canon) Ints() []int {
	if c.bad || len(c.b) == 0 || c.b[0] != '[' {
		c.bad = true
		return nil
	}
	// Count the elements first. Requiring a digit before every separator
	// keeps the allocation within a small multiple of the input.
	n, end := 0, 0
	for i := 1; i < len(c.b) && end == 0; i++ {
		switch ch := c.b[i]; {
		case ch == ',' || ch == ']':
			if c.b[i-1]-'0' > 9 {
				c.bad = true
				return nil
			}
			n++
			if ch == ']' {
				end = i
			}
		case ch != '-' && ch-'0' > 9:
			c.bad = true
			return nil
		}
	}
	if end == 0 {
		c.bad = true
		return nil
	}
	out := make([]int, n)
	c.b = c.b[1:]
	for i := range out {
		if i > 0 {
			c.Lit(",")
		}
		out[i] = c.Int()
	}
	c.Lit("]")
	if c.bad {
		return nil
	}
	return out
}
