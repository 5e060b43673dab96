package task

import (
	"encoding/binary"
	"sync"
	"time"

	"humancomp/internal/jsonx"
)

// Stamp is one instant as a stored task holds it, in 11 bytes where a
// time.Time takes 24: seconds since 0001-01-01T00:00:00Z as a signed
// 40-bit number, nanoseconds in 32 bits and the zone offset in whole
// minutes east of UTC in 16, each big-endian. That holds every instant the
// storage codec accepts — years 0–9999 to the nanosecond — and every
// offset RFC 3339 can print, and the zero Stamp is time.Time{}. A Stamp is
// a value: no location, and no monotonic clock reading.
//
// Its JSON is time.Time's, byte for byte and error for error, so a Task
// encodes as it did when its times were time.Time.
type Stamp [11]byte

// internalSecs is the Unix time of 0001-01-01T00:00:00Z, negated: what a
// Unix time is shifted by to count from year 1, as a Stamp does.
const internalSecs = 62135596800

// StampOf returns t as a Stamp. An offset that is not a whole number of
// minutes (local mean time, before time zones) loses its seconds. An
// instant or offset outside what a Stamp holds is clamped to its edge,
// which is years and hours beyond what the JSON form can show, so such a
// Stamp fails to encode as t would.
func StampOf(t time.Time) Stamp {
	_, off := t.Zone()
	sec := min(max(t.Unix(), -1<<39-internalSecs), 1<<39-1-internalSecs) + internalSecs
	var s Stamp
	binary.BigEndian.PutUint64(s[:8], uint64(sec)<<24)
	binary.BigEndian.PutUint32(s[5:9], uint32(t.Nanosecond()))
	binary.BigEndian.PutUint16(s[9:], uint16(int16(min(max(off/60, -1<<15), 1<<15-1))))
	return s
}

// seconds since year 1, nanoseconds, and the offset in minutes.
func (s Stamp) sec() int64 { return int64(binary.BigEndian.Uint64(s[:8])) >> 24 }

func (s Stamp) nsec() int64 { return int64(binary.BigEndian.Uint32(s[5:9])) }

func (s Stamp) offset() int { return int(int16(binary.BigEndian.Uint16(s[9:]))) }

// IsZero reports whether s is the zero Stamp, time.Time{}.
func (s Stamp) IsZero() bool { return s == Stamp{} }

// Compare compares the instants *s and *u as time.Time.Compare does,
// whatever their offsets. It is the queue's heap order, so it builds no
// time.Time and copies neither Stamp: with the sign bit flipped, a Stamp's
// first eight bytes order as its seconds and then the top of its
// nanoseconds do, and its ninth holds the rest.
func (s *Stamp) Compare(u *Stamp) int {
	a, b := binary.BigEndian.Uint64(s[:8])^1<<63, binary.BigEndian.Uint64(u[:8])^1<<63
	if a == b {
		a, b = uint64(s[8]), uint64(u[8])
	}
	if a == b {
		return 0
	}
	if a < b {
		return -1
	}
	return 1
}

// Time returns s as a time.Time: in UTC when the offset is zero, so the
// zero Stamp comes back as time.Time{}, in the local zone when that has
// the offset at this instant, as a clock's times do, and in a fixed zone
// of the offset otherwise.
func (s Stamp) Time() time.Time {
	t := time.Unix(s.sec()-internalSecs, s.nsec())
	off := s.offset() * 60
	if off == 0 {
		return t.UTC()
	}
	if _, local := t.Zone(); local != off {
		return t.In(fixedZone(off))
	}
	return t
}

// zones holds the fixed zones Time has built, one per offset in seconds,
// so a Stamp from a zone the local one is not (a checkpoint taken on a
// host elsewhere) costs its time.Location once, not three allocations at
// every lifecycle event. A Stamp's offset is 16 bits, so it stays small.
var zones struct {
	sync.Mutex
	m map[int]*time.Location
}

func fixedZone(off int) *time.Location {
	zones.Lock()
	defer zones.Unlock()
	z := zones.m[off]
	if z == nil {
		if zones.m == nil {
			zones.m = make(map[int]*time.Location)
		}
		z = time.FixedZone("", off)
		zones.m[off] = z
	}
	return z
}

// appendJSON appends s as time.Time.MarshalJSON writes it; ok is false
// where that returns an error.
func (s Stamp) appendJSON(b []byte) (_ []byte, ok bool) {
	off := s.offset()
	wall := time.Unix(s.sec()-internalSecs+int64(off)*60, s.nsec()).UTC()
	return jsonx.AppendWall(b, wall, off)
}

// MarshalJSON implements json.Marshaler: time.Time's bytes and errors.
func (s Stamp) MarshalJSON() ([]byte, error) {
	if b, ok := s.appendJSON(make([]byte, 0, len(`"2006-01-02T15:04:05.999999999-07:00"`))); ok {
		return b, nil
	}
	return s.Time().MarshalJSON()
}

// UnmarshalJSON implements json.Unmarshaler through time.Time's, so it
// accepts and refuses what that does; null leaves s as it is.
func (s *Stamp) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var t time.Time
	if err := t.UnmarshalJSON(b); err != nil {
		return err
	}
	*s = StampOf(t)
	return nil
}
