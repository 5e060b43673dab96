package store

import (
	"bytes"
	"testing"

	"humancomp/internal/task"
)

// FuzzWALDecode throws arbitrary bytes at the replay path. The decoder
// must never panic, never return both an error and damage-tolerant stats
// that disagree (GoodBytes past the input length), and — when the input is
// a valid log prefix — apply exactly the events the prefix contains. Input
// that starts like a v1 JSON line must be refused: an error, nothing
// applied, and nothing reported as torn tail (recovery truncates what is
// reported torn, and a v1 log is not ours to truncate).
func FuzzWALDecode(f *testing.F) {
	// Seed with a real v2 log, a v1 log, a v1 log with a v2 section behind
	// it and assorted near-misses so the fuzzer starts at the interesting
	// boundaries.
	var v2 bytes.Buffer
	wal := NewWAL(&v2)
	for i := 1; i <= 3; i++ {
		tk, err := task.New(task.ID(i), task.Label, task.Payload{ImageID: i}, 1, t0)
		if err != nil {
			f.Fatal(err)
		}
		if err := wal.AppendBatch([]Event{{Kind: EventSubmit, At: t0, Task: tk}}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:v2.Len()-5])
	v1 := []byte(`{"kind":"submit","at":"2026-07-06T12:00:00Z","task":{"id":1,"kind":"label","payload":{"image_id":1},"redundancy":1,"status":"open"}}` + "\n")
	f.Add(v1)
	f.Add(append(append([]byte(nil), v1...), v2.Bytes()...))
	f.Add(v1[:len(v1)/2])
	f.Add([]byte("HCWL"))
	f.Add([]byte{'H', 'C', 'W', 'L', 2, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		st, err := ReplayWALObserved(bytes.NewReader(data), s, nil)
		if st.Applied < 0 || st.GoodBytes < 0 || st.TruncatedBytes < 0 {
			t.Fatalf("negative stats: %+v", st)
		}
		if st.GoodBytes+st.TruncatedBytes > int64(len(data)) {
			t.Fatalf("stats cover %d bytes of a %d-byte input: %+v",
				st.GoodBytes+st.TruncatedBytes, len(data), st)
		}
		if s.Len() > st.Applied {
			t.Fatalf("store holds %d tasks but only %d events applied", s.Len(), st.Applied)
		}
		// A record length can start with '{' (0x7B) but is at most 16 MiB,
		// so its fourth byte is 0 or 1; JSON text has no such byte.
		if len(data) >= 4 && data[0] == '{' && data[3] > 1 {
			if err == nil || st != (ReplayStats{}) || s.Len() != 0 {
				t.Fatalf("v1-shaped input not refused: stats %+v, err %v", st, err)
			}
		}
	})
}
