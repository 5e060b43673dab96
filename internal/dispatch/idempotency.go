package dispatch

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"sync"

	"humancomp/internal/trace"
)

// idempotencyKeyHeader is the header clients put idempotency keys on; the
// replay marker header tells a client (and tests) that a cached response
// was served.
const (
	idempotencyKeyHeader = "Idempotency-Key"
	idempotentReplayHdr  = "Idempotent-Replay"
)

// defaultIdemCapacity bounds the completed-response cache when Options
// leaves it unset.
const defaultIdemCapacity = 4096

// idemResponse is one cached completed response.
type idemResponse struct {
	key         string
	status      int
	contentType string
	body        []byte
}

// idemCache is a bounded LRU of completed responses keyed by
// route+idempotency key. A retried Submit or Answer whose first attempt
// completed server-side (but whose response the client never saw — the
// classic dropped-response failure) replays the original response instead
// of re-executing the handler, so a retry can never create a second task
// or record a second answer.
type idemCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *idemResponse
	m   map[string]*list.Element
}

// newIdemCache returns a cache bounded to capacity entries; capacity <= 0
// selects the default.
func newIdemCache(capacity int) *idemCache {
	if capacity <= 0 {
		capacity = defaultIdemCapacity
	}
	return &idemCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the cached response for key and marks it recently used.
func (c *idemCache) get(key string) (*idemResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*idemResponse), true
}

// put stores a completed response, evicting the least recently used entry
// past capacity.
func (c *idemCache) put(rec *idemResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[rec.key]; ok {
		// First writer wins: a concurrent duplicate keeps the original.
		c.ll.MoveToFront(el)
		return
	}
	c.m[rec.key] = c.ll.PushFront(rec)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*idemResponse).key)
	}
}

// len returns the number of cached responses.
func (c *idemCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// maxIdemBody bounds how large a response body the replay cache will
// buffer: a response past the cap streams through uncached instead of
// bloating the LRU (one oversized task listing must not pin megabytes).
const maxIdemBody = 256 << 10

// responseCapture tees status and body while the handler writes, so a
// successful response can be cached for replay. Bodies past maxIdemBody
// stop being buffered (overflow is set and the partial buffer released);
// the response itself always passes through untouched.
type responseCapture struct {
	http.ResponseWriter
	status   int
	wrote    bool
	overflow bool // body exceeded maxIdemBody; do not cache
	buf      bytes.Buffer
}

func (r *responseCapture) WriteHeader(status int) {
	if !r.wrote {
		r.status = status
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *responseCapture) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	if !r.overflow {
		if r.buf.Len()+len(b) > maxIdemBody {
			r.overflow = true
			r.buf = bytes.Buffer{} // release what was buffered so far
		} else {
			r.buf.Write(b)
		}
	}
	return r.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does, so
// wrapping a streaming handler keeps its streaming semantics (mirrors
// statusRecorder).
func (r *responseCapture) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// principalScope condenses the caller's principal into a fixed-width cache
// key segment. Hashing keeps raw API keys out of cache memory; the empty
// principal (open server) hashes too, so the key shape is uniform.
func principalScope(r *http.Request) string {
	sum := sha256.Sum256([]byte(principalOf(r)))
	return hex.EncodeToString(sum[:8])
}

// lookupSpanned is get plus an "idem.lookup" child span (attr = 1 on a
// replay hit, 0 on a miss) when the request carries a span handle.
func (c *idemCache) lookupSpanned(r *http.Request, scoped string) (*idemResponse, bool) {
	sh := trace.FromContext(r.Context())
	t0 := sh.Now()
	rec, ok := c.get(scoped)
	var hit int64
	if ok {
		hit = 1
	}
	sh.ObserveSince("idem.lookup", trace.NoSpan, t0, hit)
	return rec, ok
}

// wrap makes h idempotent under the given route scope: requests carrying a
// usable Idempotency-Key replay the cached response of the first completed
// attempt. Keys are scoped per route AND per authenticated principal: a
// Submit key can never collide with an Answer key, and — the bug this
// closes — one API key can never replay a response cached for another
// caller who happened to pick the same Idempotency-Key value. Only
// successful (2xx) responses are cached — a failed attempt must
// re-execute, because it changed nothing. Responses whose body overflowed
// the capture bound are served but not cached.
func (c *idemCache) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	if c == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(idempotencyKeyHeader)
		if !usableRequestID(key) { // same shape rules as request IDs
			h(w, r)
			return
		}
		scoped := route + "\x00" + principalScope(r) + "\x00" + key
		rec, ok := c.lookupSpanned(r, scoped)
		if ok {
			w.Header().Set(idempotentReplayHdr, "true")
			if rec.contentType != "" {
				w.Header().Set("Content-Type", rec.contentType)
			}
			w.WriteHeader(rec.status)
			_, _ = w.Write(rec.body)
			return
		}
		cap := &responseCapture{ResponseWriter: w, status: http.StatusOK}
		h(cap, r)
		if cap.status >= 200 && cap.status < 300 && !cap.overflow {
			c.put(&idemResponse{
				key:         scoped,
				status:      cap.status,
				contentType: cap.Header().Get("Content-Type"),
				body:        append([]byte(nil), cap.buf.Bytes()...),
			})
		}
	}
}
