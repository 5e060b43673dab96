package node

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"humancomp/internal/core"
	"humancomp/internal/faultinject"
	"humancomp/internal/repl"
	"humancomp/internal/store"
	"humancomp/internal/task"
)

// populated returns a system holding n open label tasks and two gold probes
// (so its snapshots carry a calibration sidecar).
func populated(t *testing.T, n int) *core.System {
	t.Helper()
	sys := core.New(core.DefaultConfig())
	for i := 0; i < 2; i++ {
		if _, err := sys.SubmitGold(task.Judge, task.Payload{ImageID: i}, 3, 1, task.Answer{Choice: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := sys.SubmitTask(task.Label, task.Payload{ImageID: i, Detail: &task.Detail{Taboo: []int{i, i + 1, i + 2}}}, 3, i%4); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestFailedSaveKeepsPreviousSnapshot: the snapshot writer streams, so a
// write that fails has already put a prefix on disk. It must land beside
// the snapshot, never in it: after a checkpoint torn at any byte the file at
// the path is the previous checkpoint, byte for byte.
func TestFailedSaveKeepsPreviousSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := save(populated(t, 50), path); err != nil {
		t.Fatal(err)
	}
	previous, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	sys := populated(t, 3000)
	var whole bytes.Buffer
	if err := sys.Snapshot(&whole); err != nil {
		t.Fatal(err)
	}
	size := int64(whole.Len())
	if size < 4*64<<10 {
		t.Fatalf("snapshot is %d bytes; the cuts below are meant to fall in different buffers", size)
	}
	torn := func(name string, fault func(io.Writer) io.Writer) {
		t.Helper()
		err := store.WriteDurable(path, func(w io.Writer) error { return sys.Snapshot(fault(w)) })
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s: save returned %v, want the injected fault", name, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, previous) {
			t.Fatalf("%s: snapshot after the failed save: %d bytes, %v; want the previous %d bytes untouched", name, len(got), err, len(previous))
		}
	}
	for _, off := range []int64{0, 1, 64<<10 - 1, 64 << 10, size / 2, size - 2} {
		off := off
		torn("cut", func(w io.Writer) io.Writer { return faultinject.NewCutWriter(w, off) })
	}
	torn("short write", func(w io.Writer) io.Writer {
		return faultinject.NewWriter(w, faultinject.Schedule{3: {Kind: faultinject.ShortWrite, Bytes: 100}})
	})
	torn("failed write", func(w io.Writer) io.Writer {
		return faultinject.NewWriter(w, faultinject.Schedule{2: {Kind: faultinject.Fail}})
	})

	// The path is not poisoned by the leftovers: the next save lands.
	if err := save(sys, path); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, whole.Bytes()) {
		t.Fatalf("snapshot after a good save: %d bytes, %v; want the %d the system encodes to", len(got), err, size)
	}
}

// TestFollowerBootstrapSurvivesDroppedDownloads: the leader's link dies
// partway through the snapshot, more than once. The follower retries, the
// file at its -snapshot path is never a partial download, and what finally
// lands there is the leader's snapshot whole — the file a follower boots
// from through the same restore a leader uses.
func TestFollowerBootstrapSurvivesDroppedDownloads(t *testing.T) {
	dir := t.TempDir()
	leaderSnap := filepath.Join(dir, "leader.json")
	// The leader grows until its snapshot lies in the window the seeded
	// link drops below assume, so the test holds whatever a task encodes
	// to: from under 550 KiB, a quarter more tasks lands below 1300.
	n := 1000
	var want []byte
	for {
		if err := save(populated(t, n), leaderSnap); err != nil {
			t.Fatal(err)
		}
		var err error
		if want, err = os.ReadFile(leaderSnap); err != nil {
			t.Fatal(err)
		}
		if len(want)>>10 >= 550 {
			break
		}
		n += n / 4
	}
	// What the follower holds from an earlier life; a failed download must
	// not touch it.
	followerSnap := filepath.Join(dir, "follower.json")
	if err := save(populated(t, 5), followerSnap); err != nil {
		t.Fatal(err)
	}
	previous, err := os.ReadFile(followerSnap)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Each connection is severed after a seeded byte budget; with this seed
	// the first three get 481, 262 and 1440 KiB, so two downloads die
	// mid-body and the third gets through.
	if kib := len(want) >> 10; kib < 550 || kib > 1300 {
		t.Fatalf("leader snapshot is %d KiB; the budgets above assume 550..1300", kib)
	}
	flaky := faultinject.WrapListener(ln, faultinject.ConnOptions{Seed: 7, DropAfter: 150 << 10, DropJitter: 1500 << 10})
	src := repl.NewSource(repl.SourceOptions{SnapshotPath: leaderSnap})
	defer src.Close()
	var attempts atomic.Int32
	routes := src.Handler(nil)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) > 1 {
			// An earlier download died; the follower's file is still its old one.
			if got, err := os.ReadFile(followerSnap); err != nil || !bytes.Equal(got, previous) {
				t.Errorf("after a dropped download the follower's snapshot is %d bytes, %v; want the previous %d untouched", len(got), err, len(previous))
			}
		}
		routes.ServeHTTP(w, r)
	})}
	go srv.Serve(flaky)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	if _, err := fetchLeaderSnapshot(ctx, slog.New(slog.DiscardHandler), hc, "http://"+ln.Addr().String(), followerSnap, 5*time.Millisecond); err != nil {
		t.Fatalf("bootstrap gave up after %d attempts: %v", attempts.Load(), err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("bootstrap took %d attempts; the listener was meant to drop the first two downloads", n)
	}
	if got, err := os.ReadFile(followerSnap); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("bootstrapped snapshot: %d bytes, %v; want the leader's %d", len(got), err, len(want))
	}
	sys := core.New(core.DefaultConfig())
	if err := restore(slog.New(slog.DiscardHandler), sys, followerSnap); err != nil {
		t.Fatalf("booting from the bootstrapped snapshot: %v", err)
	}
	if got := sys.Store().Len(); got != n+2 {
		t.Fatalf("follower restored %d tasks, want %d", got, n+2)
	}
}
