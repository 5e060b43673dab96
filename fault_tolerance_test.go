package humancomp_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"humancomp/internal/core"
	"humancomp/internal/faultinject"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

// soakTraffic drives a deterministic submit/lease/answer workload against
// a journaled system, pressing on through journal failures (the writer may
// die mid-run). It returns which events were acknowledged: exactly the
// operations whose core call returned nil, i.e. whose WAL append flushed.
func soakTraffic(sys *core.System) (ackedTasks map[task.ID]bool, ackedAnswers map[task.ID]int) {
	ackedTasks = make(map[task.ID]bool)
	ackedAnswers = make(map[task.ID]int)
	for i := 1; i <= 12; i++ {
		id, err := sys.SubmitTask(task.Label, task.Payload{ImageID: i}, 1, 0)
		if err == nil {
			ackedTasks[id] = true
		}
		tv, lease, err := sys.NextTask("w")
		if err != nil {
			continue
		}
		if err := sys.SubmitAnswer(lease, task.Answer{Words: []int{int(tv.ID)}}); err == nil {
			ackedAnswers[tv.ID]++
		}
	}
	return ackedTasks, ackedAnswers
}

// TestCrashRecoverySoak cuts the WAL's backing file at 50 distinct byte
// offsets — each modeling a crash mid-write at a different point — and
// checks the acknowledgment contract after every one: an event survives
// recovery if and only if its append was acknowledged. No acked event is
// lost, no unacked event resurfaces, no task is duplicated, and a second
// restart from the truncated file is clean.
func TestCrashRecoverySoak(t *testing.T) {
	// Reference run against an in-memory log to learn the full log size.
	var ref bytes.Buffer
	refCfg := core.DefaultConfig()
	refCfg.Journal = store.NewWAL(&ref)
	soakTraffic(core.New(refCfg))
	total := int64(ref.Len())
	if total < 100 {
		t.Fatalf("reference log implausibly small: %d bytes", total)
	}

	const trials = 50
	dir := t.TempDir()
	seen := make(map[int64]bool)
	for k := 0; k < trials; k++ {
		// Offsets spread evenly across the log, endpoints excluded so
		// every trial dies somewhere strictly mid-stream.
		cut := 1 + k*(int(total)-2)/(trials-1)
		if seen[int64(cut)] {
			t.Fatalf("offset %d repeated; log too small for %d distinct trials", cut, trials)
		}
		seen[int64(cut)] = true
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("wal-%d.log", cut))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Journal = store.NewWAL(faultinject.NewCutWriter(f, int64(cut)))
			ackedTasks, ackedAnswers := soakTraffic(core.New(cfg))
			f.Close() // crash: in-memory state is gone, only the file remains

			ackedEvents := len(ackedTasks)
			for _, n := range ackedAnswers {
				ackedEvents += n
			}

			recovered := core.New(core.DefaultConfig())
			rf, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer rf.Close()
			st, err := store.RecoverWALObserved(rf, recovered.Store(), nil)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if st.Applied != ackedEvents {
				t.Fatalf("recovered %d events, acked %d (lost or resurrected work)",
					st.Applied, ackedEvents)
			}
			if got := recovered.Store().Len(); got != len(ackedTasks) {
				t.Fatalf("recovered %d tasks, acked %d", got, len(ackedTasks))
			}
			for id := range ackedTasks {
				tk, err := recovered.Task(id)
				if err != nil {
					t.Fatalf("acked task %d lost: %v", id, err)
				}
				if len(tk.Answers()) != ackedAnswers[id] {
					t.Fatalf("task %d has %d answers, acked %d", id, len(tk.Answers()), ackedAnswers[id])
				}
			}

			// The damaged tail must be gone from disk, and a second
			// restart from the same file must be byte-clean.
			info, err := rf.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != st.GoodBytes {
				t.Fatalf("file is %d bytes after recovery, want %d", info.Size(), st.GoodBytes)
			}
			if _, err := rf.Seek(0, 0); err != nil {
				t.Fatal(err)
			}
			again := core.New(core.DefaultConfig())
			st2, err := store.RecoverWALObserved(rf, again.Store(), nil)
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			if st2.Applied != st.Applied || st2.TruncatedBytes != 0 {
				t.Fatalf("second recovery: applied %d truncated %d, want %d/0",
					st2.Applied, st2.TruncatedBytes, st.Applied)
			}
		})
	}
}
