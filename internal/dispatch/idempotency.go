package dispatch

import (
	"container/list"
	"net/http"
	"strconv"
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

// idemCapacity bounds a server's completed-response cache.
const idemCapacity = 4096

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

// newIdemCache returns a cache bounded to capacity entries.
func newIdemCache(capacity int) *idemCache {
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
// The exchange stops teeing there and the response itself always passes
// through untouched.
const maxIdemBody = 256 << 10

// wrap makes next idempotent under the given route scope: requests
// carrying a usable Idempotency-Key replay the cached response of the
// first completed attempt. Keys are scoped per route AND per authenticated
// principal: a Submit key can never collide with an Answer key, and — the
// bug this closes — one API key can never replay a response cached for
// another caller who happened to pick the same Idempotency-Key value. Only
// successful (2xx) responses are cached — a failed attempt must
// re-execute, because it changed nothing. Responses whose body overflowed
// the capture bound (the exchange has stopped capturing) are served but
// not cached.
func (c *idemCache) wrap(route string, next handler) handler {
	return func(e *exchange, r *http.Request) {
		key := r.Header.Get(idempotencyKeyHeader)
		if !usableRequestID(key) { // same shape rules as request IDs
			next(e, r)
			return
		}
		scoped := route + "\x00" + e.scope + "\x00" + key
		// The lookup is an "idem.lookup" child span on a traced request:
		// attr 1 on a replay hit, 0 on a miss.
		t0 := e.sh.Now()
		rec, ok := c.get(scoped)
		var hit int64
		if ok {
			hit = 1
		}
		e.sh.ObserveSince("idem.lookup", trace.NoSpan, t0, hit)
		if ok {
			h := e.Header()
			h.Set(idempotentReplayHdr, "true")
			if rec.contentType != "" {
				h.Set("Content-Type", rec.contentType)
			}
			if len(rec.body) > 0 { // as writeJSON did on the first attempt
				h.Set("Content-Length", strconv.Itoa(len(rec.body)))
			}
			e.WriteHeader(rec.status)
			_, _ = e.Write(rec.body)
			return
		}
		e.capture = true
		next(e, r)
		if e.capture && e.status >= 200 && e.status < 300 {
			c.put(&idemResponse{
				key:         scoped,
				status:      e.status,
				contentType: e.Header().Get("Content-Type"),
				body:        e.buf,
			})
		}
	}
}
