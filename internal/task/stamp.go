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
	return stampAt(t.Unix(), t.Nanosecond(), off/60)
}

// stampAt is the Stamp of the Unix time unix plus nsec nanoseconds, read
// in the zone off minutes east of UTC, each clamped as StampOf says.
func stampAt(unix int64, nsec, off int) Stamp {
	sec := min(max(unix, -1<<39-internalSecs), 1<<39-1-internalSecs) + internalSecs
	var s Stamp
	binary.BigEndian.PutUint64(s[:8], uint64(sec)<<24)
	binary.BigEndian.PutUint32(s[5:9], uint32(nsec))
	binary.BigEndian.PutUint16(s[9:], uint16(int16(min(max(off, -1<<15), 1<<15-1))))
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

// UnmarshalJSON implements json.Unmarshaler as time.Time's does, so it
// accepts and refuses what that does; null leaves s as it is. The form
// MarshalJSON writes is read straight into the Stamp (see parseStamp); any
// other goes through time.Time's.
func (s *Stamp) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if v, ok := parseStamp(b); ok {
		*s = v
		return nil
	}
	var t time.Time
	if err := t.UnmarshalJSON(b); err != nil {
		return err
	}
	*s = StampOf(t)
	return nil
}

// parseStamp reads b, a JSON string, as time.Time.UnmarshalJSON does when
// it holds the strict RFC 3339 form that MarshalJSON writes: the form the
// time package reads without falling back to time.Parse. The date and time
// fields are range-checked as it checks them, the fraction is cut to nine
// digits as it cuts it, and the result is the instant and offset it gives,
// with no time.Location built for an offset. ok is false for any other
// input, which is then time.Time's to accept or refuse.
func parseStamp(b []byte) (_ Stamp, ok bool) {
	if len(b) < len(`"2006-01-02T15:04:05Z"`) || b[0] != '"' || b[len(b)-1] != '"' {
		return Stamp{}, false
	}
	s := b[1 : len(b)-1]
	ok = true
	num := func(s []byte, lo, hi int) (x int) {
		for _, c := range s {
			if c < '0' || c > '9' {
				ok = false
				return lo
			}
			x = x*10 + int(c-'0')
		}
		if x < lo || x > hi {
			ok = false
		}
		return x
	}
	year := num(s[0:4], 0, 9999)
	month := num(s[5:7], 1, 12)
	day := num(s[8:10], 1, daysIn(month, year))
	hour := num(s[11:13], 0, 23)
	minute := num(s[14:16], 0, 59)
	sec := num(s[17:19], 0, 59)
	if !ok || s[4] != '-' || s[7] != '-' || s[10] != 'T' || s[13] != ':' || s[16] != ':' {
		return Stamp{}, false
	}
	s = s[19:]
	nsec := 0
	if len(s) >= 2 && s[0] == '.' && isDigit(s[1]) {
		n := 1
		for n < len(s) && isDigit(s[n]) {
			n++
		}
		for i := 1; i <= 9; i++ {
			nsec *= 10
			if i < n {
				nsec += int(s[i] - '0')
			}
		}
		s = s[n:]
	}
	off := 0
	if len(s) != 1 || s[0] != 'Z' {
		if len(s) != len("-07:00") || s[0] != '+' && s[0] != '-' || s[3] != ':' {
			return Stamp{}, false
		}
		off = num(s[1:3], 0, 23)*60 + num(s[4:6], 0, 59)
		if !ok {
			return Stamp{}, false
		}
		if s[0] == '-' {
			off = -off
		}
	}
	unix := time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC).Unix()
	return stampAt(unix-int64(off)*60, nsec, off), true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// daysIn is the number of days in month of year, or 31 for a month out of
// range (which fails its own check).
func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}
