package task

import (
	"testing"
	"time"
	"unsafe"
)

// errText is err's message, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzStampMatchesTime: a Stamp's JSON is time.Time's. For any instant in
// years 0–9999, at any nanosecond and any whole-minute offset inside a day
// either way, MarshalJSON writes time.Time's bytes or returns its error,
// and the bytes decode back to the same Stamp. Any text at all decodes as
// time.Time.UnmarshalJSON decodes it, error for error.
func FuzzStampMatchesTime(f *testing.F) {
	f.Add(int64(0), uint32(0), int16(0), []byte(`"0001-01-01T00:00:00Z"`))
	f.Add(int64(-1), uint32(999_999_999), int16(1439), []byte(`null`))
	f.Add(int64(1_783_339_200), uint32(5), int16(-210), []byte(`"2026-07-06T12:00:00.000000005-03:30"`))
	f.Add(int64(1_783_339_200), uint32(120_000_000), int16(345), []byte(`"2026-07-06T12:00:00+05:45"`))
	f.Add(int64(253_402_300_799), uint32(0), int16(-1439), []byte(`"9999-12-31T23:59:59.999999999Z"`))
	f.Add(int64(-62_167_219_200), uint32(1), int16(-1), []byte(`"0000-01-01T00:00:00+00:01"`))
	for _, s := range []string{`"2026-07-06T12:00:00+24:00"`, `"2026-02-30T12:00:00Z"`, `"2026-07-06 12:00:00"`, `"2026-07-06T12:00:00.Z"`,
		`"x"`, `12`, ``, `"`, `"2026-07-06T12:00:00-23:59"`, `"2026-07-06T12:00:00+05:60"`, `"10000-01-01T00:00:00Z"`} {
		f.Add(int64(7), uint32(7), int16(7), []byte(s))
	}
	lo := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	span := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - lo
	f.Fuzz(func(t *testing.T, sec int64, nsec uint32, off int16, text []byte) {
		sec = lo + (sec%span+span)%span
		offMin := (int(off)%2879+2879)%2879 - 1439
		tm := time.Unix(sec, int64(nsec%1_000_000_000)).In(time.FixedZone("", offMin*60))
		s := StampOf(tm)
		want, wantErr := tm.MarshalJSON()
		got, gotErr := s.MarshalJSON()
		if string(got) != string(want) || errText(gotErr) != errText(wantErr) {
			t.Fatalf("%v: Stamp writes %s, %v; time.Time %s, %v", tm, got, gotErr, want, wantErr)
		}
		if wantErr == nil {
			var back Stamp
			if err := back.UnmarshalJSON(want); err != nil || back != s {
				t.Fatalf("%s decodes to %v, %v; want %v", want, back, err, s)
			}
			if at := s.Time(); !at.Equal(tm) {
				t.Fatalf("%v comes back as %v", tm, at)
			}
		}

		// From a set value: null leaves both as they were.
		tt, st := tm, s
		wantErr, gotErr = tt.UnmarshalJSON(text), st.UnmarshalJSON(text)
		if errText(gotErr) != errText(wantErr) || wantErr == nil && st != StampOf(tt) {
			t.Fatalf("%q: Stamp decodes %v, %v; time.Time %v, %v", text, st, gotErr, tt, wantErr)
		}
	})
}

// TestStampOrderAndTime: Compare orders instants as time.Time does,
// whatever the offsets, Time gives the instant and offset back, reusing
// the zone it builds, the zero Stamp is time.Time{}, and instants and
// offsets past what a Stamp holds are clamped to ones that still fail to
// encode.
func TestStampOrderAndTime(t *testing.T) {
	if got := unsafe.Sizeof(Stamp{}); got != 11 {
		t.Errorf("Stamp is %d B; want 11", got)
	}
	if !StampOf(time.Time{}).IsZero() || (Stamp{}).Time() != (time.Time{}) {
		t.Errorf("the zero Stamp is not time.Time{}: %v, %#v", StampOf(time.Time{}), Stamp{}.Time())
	}
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	times := []time.Time{
		{}, time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), base.Add(-time.Nanosecond), base,
		base.In(time.FixedZone("", -10*3600)), base.Add(time.Nanosecond).In(time.FixedZone("", 14*3600)),
		base.Add(time.Second), time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 3600)),
	}
	for _, a := range times {
		for _, b := range times {
			if sa, sb := StampOf(a), StampOf(b); sa.Compare(&sb) != a.Compare(b) {
				t.Errorf("Compare(%v, %v) = %d; want %d", a, b, sa.Compare(&sb), a.Compare(b))
			}
		}
		back := StampOf(a).Time()
		_, gotOff := back.Zone()
		_, wantOff := a.Zone()
		if !back.Equal(a) || gotOff != wantOff {
			t.Errorf("%v comes back as %v", a, back)
		}
	}
	// An offset the local zone lacks is built once: later calls share it.
	if _, local := base.Local().Zone(); local != 5*3600+45*60 {
		s := StampOf(base.In(time.FixedZone("NPT", 5*3600+45*60)))
		if a, b := s.Time().Location(), s.Time().Location(); a != b {
			t.Errorf("Time builds a new zone for +05:45 at every call")
		}
	}
	for _, tm := range []time.Time{
		time.Date(1_000_000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1_000_000, 1, 1, 0, 0, 0, 0, time.UTC),
		base.In(time.FixedZone("", 1000*3600)), base.In(time.FixedZone("", -1000*3600)),
	} {
		_, wantErr := tm.MarshalJSON()
		_, gotErr := StampOf(tm).MarshalJSON()
		if wantErr == nil || errText(gotErr) != errText(wantErr) {
			t.Errorf("%v: Stamp error %v; time.Time %v", tm, gotErr, wantErr)
		}
	}
}
