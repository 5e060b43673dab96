// Package faultinject provides deterministic fault injection for
// robustness tests: an io.Writer that fails, short-writes or delays the
// N-th write, and an http.RoundTripper that fails, delays or drops the
// response of the N-th request — all driven by an explicit or seeded
// schedule, so a failing run replays exactly from its seed.
//
// The writer models a crashing process: after its first injected failure
// it stays failed (every later write returns ErrInjected), because a
// process that died mid-write does not come back to finish the file.
package faultinject

import (
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrInjected is the error returned by injected failures.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind selects what an injected fault does.
type Kind int

const (
	// Fail returns ErrInjected without performing the operation.
	Fail Kind = iota
	// ShortWrite writes only Fault.Bytes bytes of the payload, then
	// returns ErrInjected — a torn write. On a RoundTripper it behaves
	// like Fail.
	ShortWrite
	// Delay sleeps Fault.Delay, then performs the operation normally.
	Delay
	// DropResponse (RoundTripper only) forwards the request, discards the
	// response and returns ErrInjected — the server did the work but the
	// client never heard back, the case idempotency keys exist for.
	DropResponse
)

// Fault is one scheduled fault.
type Fault struct {
	Kind  Kind
	Bytes int           // ShortWrite: bytes let through before failing
	Delay time.Duration // Delay: how long to stall
}

// Schedule maps 1-based operation numbers to faults.
type Schedule map[int]Fault

// Seeded builds a deterministic schedule of n faults over operations
// [1, maxOp] from the given seed. Kinds alternate among Fail, ShortWrite
// and Delay; short writes cut at a pseudo-random small offset.
func Seeded(seed int64, maxOp, n int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := make(Schedule, n)
	for len(s) < n && len(s) < maxOp {
		op := 1 + rng.Intn(maxOp)
		if _, dup := s[op]; dup {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			s[op] = Fault{Kind: Fail}
		case 1:
			s[op] = Fault{Kind: ShortWrite, Bytes: rng.Intn(8)}
		default:
			s[op] = Fault{Kind: Delay, Delay: time.Duration(rng.Intn(5)) * time.Millisecond}
		}
	}
	return s
}

// Writer wraps an io.Writer with scheduled write faults. Operations are
// counted from 1. Additionally, CutAt arms a byte-offset trigger: the
// write that would carry the cumulative byte count past the offset is
// truncated there and fails — which tears a record at an arbitrary byte
// position, exactly what a mid-write crash leaves on disk. After any
// injected failure the writer is dead: every subsequent write returns
// ErrInjected without writing.
type Writer struct {
	mu      sync.Mutex
	w       io.Writer
	sched   Schedule
	op      int
	written int64
	cutAt   int64 // byte offset trigger; <0 disarmed
	dead    bool
}

// NewWriter wraps w with the given per-operation schedule (nil for none).
func NewWriter(w io.Writer, sched Schedule) *Writer {
	return &Writer{w: w, sched: sched, cutAt: -1}
}

// NewCutWriter wraps w so that all bytes up to offset pass through and the
// write crossing the offset is torn there.
func NewCutWriter(w io.Writer, offset int64) *Writer {
	return &Writer{w: w, cutAt: offset}
}

// Write implements io.Writer with the scheduled faults applied.
func (fw *Writer) Write(p []byte) (int, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.dead {
		return 0, ErrInjected
	}
	fw.op++
	if fw.cutAt >= 0 && fw.written+int64(len(p)) > fw.cutAt {
		keep := fw.cutAt - fw.written
		if keep < 0 {
			keep = 0
		}
		n, _ := fw.w.Write(p[:keep])
		fw.written += int64(n)
		fw.dead = true
		return n, ErrInjected
	}
	if f, ok := fw.sched[fw.op]; ok {
		switch f.Kind {
		case Delay:
			time.Sleep(f.Delay)
		case ShortWrite:
			keep := f.Bytes
			if keep > len(p) {
				keep = len(p)
			}
			n, _ := fw.w.Write(p[:keep])
			fw.written += int64(n)
			fw.dead = true
			return n, ErrInjected
		default: // Fail
			fw.dead = true
			return 0, ErrInjected
		}
	}
	n, err := fw.w.Write(p)
	fw.written += int64(n)
	if err != nil {
		fw.dead = true
	}
	return n, err
}

// Written returns how many bytes reached the underlying writer.
func (fw *Writer) Written() int64 {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.written
}

// Dead reports whether a fault has fired and killed the writer.
func (fw *Writer) Dead() bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.dead
}

// RoundTripper wraps an http.RoundTripper with scheduled request faults,
// counted from 1. Unlike Writer it is not sticky: each request consults
// the schedule independently, so a test can fail attempt 1 and let the
// retry through.
type RoundTripper struct {
	mu    sync.Mutex
	rt    http.RoundTripper
	sched Schedule
	op    int
}

// NewRoundTripper wraps rt (nil for http.DefaultTransport).
func NewRoundTripper(rt http.RoundTripper, sched Schedule) *RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	return &RoundTripper{rt: rt, sched: sched}
}

// RoundTrip implements http.RoundTripper with the scheduled faults.
func (frt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	frt.mu.Lock()
	frt.op++
	f, ok := frt.sched[frt.op]
	frt.mu.Unlock()
	if !ok {
		return frt.rt.RoundTrip(req)
	}
	switch f.Kind {
	case Delay:
		time.Sleep(f.Delay)
		return frt.rt.RoundTrip(req)
	case DropResponse:
		resp, err := frt.rt.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, ErrInjected
	default: // Fail, ShortWrite
		return nil, ErrInjected
	}
}
