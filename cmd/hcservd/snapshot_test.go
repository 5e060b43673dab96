package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"humancomp/internal/dispatch"
	"humancomp/internal/task"
)

// TestKillDuringBootCheckpoint SIGKILLs the real binary while it streams its
// boot checkpoint — after WAL replay, before the rename. The half-written
// checkpoint sits beside the snapshot, the snapshot and the WAL are as the
// previous life left them, and the next boot recovers every task from the
// two.
func TestKillDuringBootCheckpoint(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hcservd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hcservd: %v\n%s", err, out)
	}
	dir := t.TempDir()
	snap, wal, tmp := filepath.Join(dir, "snap.json"), filepath.Join(dir, "wal.log"), filepath.Join(dir, "snap.json.tmp")
	submit := func(n *proc, total int) {
		t.Helper()
		for sent := 0; sent < total; {
			reqs := make([]dispatch.SubmitRequest, min(256, total-sent))
			for i := range reqs {
				reqs[i] = dispatch.SubmitRequest{Kind: "label", Payload: task.Payload{ImageID: sent + i, Detail: &task.Detail{Taboo: []int{1, 2, 3, 4}}}, Redundancy: 3}
			}
			res, err := n.c.SubmitBatchContext(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.Status != http.StatusCreated {
					t.Fatalf("batch submit item: %+v", r)
				}
			}
			sent += len(reqs)
		}
	}

	// One clean life leaves 8 000 tasks in the snapshot; the next is killed
	// with 24 000 more in the WAL only.
	const inSnapshot, inWAL = 8_000, 24_000
	n := startNode(t, bin, dir)
	submit(n, inSnapshot)
	n.stop(t, syscall.SIGTERM)
	n = startNode(t, bin, dir)
	submit(n, inWAL)
	n.stop(t, syscall.SIGKILL)
	snapBefore, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	walBefore, err := os.Stat(wal)
	if err != nil || walBefore.Size() == 0 {
		t.Fatalf("wal before the crash boot: %v, %v", walBefore, err)
	}
	os.Remove(tmp)

	// The crash boot: kill it the moment the checkpoint has bytes on disk.
	// On a loaded host the checkpoint can be through before the kill
	// lands; the state the boot started from is then put back from a copy
	// and the boot tried again, up to crashBoots times.
	const crashBoots = 5
	saved := t.TempDir()
	copyState(t, dir, saved)
	full := int64(len(snapBefore)) * (inSnapshot + inWAL) / inSnapshot
	for boot := 1; ; boot++ {
		n = launch(t, bin, dir)
		for deadline := time.Now().Add(20 * time.Second); ; {
			if fi, err := os.Stat(tmp); err == nil && fi.Size() > 0 {
				break
			}
			if fi, err := os.Stat(snap); err == nil && fi.Size() != int64(len(snapBefore)) {
				break // through before it was seen
			}
			select {
			case <-n.done:
				t.Fatalf("hcservd exited during the crash boot; log:\n%s", readLog(dir))
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("no checkpoint started within 20s; log:\n%s", readLog(dir))
			}
		}
		n.stop(t, syscall.SIGKILL)
		fi, err := os.Stat(tmp)
		if err == nil && fi.Size() < full {
			break
		}
		if boot == crashBoots {
			t.Fatalf("checkpoint left behind after %d crash boots: %v, %v; the kill was meant to land mid-stream", boot, fi, err)
		}
		t.Logf("crash boot %d: the checkpoint was through before the kill landed (%v, %v); booting again from the state before it", boot, fi, err)
		copyState(t, saved, dir)
	}
	if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, snapBefore) {
		t.Fatalf("snapshot after a kill mid-checkpoint: %d bytes, %v; want the previous %d untouched", len(got), err, len(snapBefore))
	}
	if fi, err := os.Stat(wal); err != nil || fi.Size() != walBefore.Size() {
		t.Fatalf("wal after a kill mid-checkpoint: %v, %v; want its %d bytes untruncated", fi, err, walBefore.Size())
	}

	n = startNode(t, bin, dir)
	st, err := n.c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.StoredTasks != inSnapshot+inWAL || st.Queue.Open != inSnapshot+inWAL {
		t.Fatalf("after the kill mid-checkpoint: %d stored, %d open; want %d; log:\n%s",
			st.StoredTasks, st.Queue.Open, inSnapshot+inWAL, readLog(dir))
	}
	last, err := get[dispatch.TaskList](n, fmt.Sprintf("/v1/tasks?offset=%d&limit=10", inSnapshot+inWAL-1))
	if err != nil || last.Total != inSnapshot+inWAL || len(last.Tasks) != 1 || last.Tasks[0].Payload.ImageID != inWAL-1 {
		t.Fatalf("last task after recovery: %+v, %v", last, err)
	}
}

// copyState makes the state files of dst — every file but the server log —
// those of src.
func copyState(t *testing.T, src, dst string) {
	t.Helper()
	old, err := os.ReadDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range old {
		if e.Name() != "hcservd.log" {
			if err := os.Remove(filepath.Join(dst, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range files {
		if e.Name() == "hcservd.log" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
