package jsonx

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestAppendStringMatchesMarshal: every byte value, alone and between
// neighbours, and the multi-byte cases encoding/json treats specially.
func TestAppendStringMatchesMarshal(t *testing.T) {
	var cases []string
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	cases = append(cases, "", "plain", "é", "日本語", "\u2028", "x\u2029y", "\u2027\u202a", "\ufffd",
		"\xe2\x80", "\xe2\x80\xa8\xe2", "\xf0\x9f\x98\x80", "\xf0\x9f\x98", "\xed\xa0\x80", `<a href="x">&amp;</a>`, "tab\there\nnewline\\")
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("k:"), s); string(got) != "k:"+string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal writes %s", s, got[2:], want)
		}
	}
}

func TestAppendTimeMatchesMarshal(t *testing.T) {
	base := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	cases := []time.Time{
		{}, base, base.Add(time.Nanosecond), base.Add(120 * time.Millisecond), time.Now(), time.Now().UTC(),
		time.Time{}.In(time.FixedZone("", 3600)),
		base.In(time.FixedZone("", 2*3600)), base.In(time.FixedZone("", -(5*3600 + 30*60))), base.In(time.FixedZone("", 90)),
		base.In(time.FixedZone("", 23*3600+59*60)), base.In(time.FixedZone("", 24*3600)), base.In(time.FixedZone("", -24*3600)), base.In(time.FixedZone("", 100*3600)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for _, tm := range cases {
		want, wantErr := tm.MarshalJSON()
		got, ok := AppendTime([]byte("k:"), tm)
		if ok != (wantErr == nil) {
			t.Errorf("AppendTime(%v) ok=%v, MarshalJSON error %v", tm, ok, wantErr)
		} else if ok && string(got) != "k:"+string(want) {
			t.Errorf("AppendTime(%v) = %s, MarshalJSON writes %s", tm, got[2:], want)
		}
		if !ok {
			continue
		}
		c := NewCanon(want)
		var back, std time.Time
		c.Time(&back)
		if err := std.UnmarshalJSON(want); err != nil || !c.Done() || !reflect.DeepEqual(back, std) {
			t.Errorf("Canon.Time(%s) = %v (done %v), UnmarshalJSON gives %v, %v", want, back, c.Done(), std, err)
		}
	}
}

// TestCanonIntegers: Int64 accepts what strconv.AppendInt writes and nothing
// else, and never a value json.Unmarshal would decode differently.
func TestCanonIntegers(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 9, 10, -10, 1234567890, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1} {
		c := NewCanon(strconv.AppendInt(nil, n, 10))
		if got := c.Int64(); got != n || !c.Done() {
			t.Errorf("Int64(%d) = %d, done %v", n, got, c.Done())
		}
	}
	for _, s := range []string{"", "-", "-0", "00", "01", "-01", "+1", "1.0", "1e3", "9223372036854775808", "-9223372036854775809", "99999999999999999999", " 1", "a", "\u0661"} {
		c := NewCanon([]byte(s))
		c.Int64()
		if c.Done() {
			t.Errorf("Int64 accepted %q whole", s)
		}
	}
	c := NewCanon([]byte("12,"))
	if n := c.Int64(); n != 12 || !c.OK() || c.Done() {
		t.Errorf("Int64 of %q = %d, ok %v, done %v", "12,", n, c.OK(), c.Done())
	}
	for _, s := range []string{"[1]", "[1,-2,30]", "[]", "[,]", "[1,]", "[,1]", "[1,,2]", "[1 ,2]", "[1", "[-]", "1]"} {
		c := NewCanon([]byte(s))
		got := c.Ints()
		var want []int
		valid := json.Unmarshal([]byte(s), &want) == nil
		if c.Done() && (!valid || !reflect.DeepEqual(got, want)) {
			t.Errorf("Ints(%q) = %v, json.Unmarshal gives %v (valid %v)", s, got, want, valid)
		}
		if s == "[1,-2,30]" && !c.Done() {
			t.Errorf("Ints rejected %q", s)
		}
	}
}

// TestCanonStrings: a string is taken only when its bytes are its value.
func TestCanonStrings(t *testing.T) {
	for _, s := range []string{`""`, `"a"`, `"a<b>&c"`, `"é日本"`, "\"\u2028\"", `"a\nb"`, `"a\"b"`, "\"a\nb\"", "\"\xff\"", `"open`, `x`, ``} {
		c := NewCanon([]byte(s))
		got := c.Str()
		var want string
		valid := json.Unmarshal([]byte(s), &want) == nil
		if c.Done() && (!valid || got != want) {
			t.Errorf("Str(%q) = %q, json.Unmarshal gives %q (valid %v)", s, got, want, valid)
		}
		if s == `"a<b>&c"` && !c.Done() {
			t.Errorf("Str rejected %q", s)
		}
	}
}
