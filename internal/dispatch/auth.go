package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"humancomp/internal/antifraud"
	"humancomp/internal/session"
)

// Options configures optional server hardening. The zero value is an open
// server, which is what tests and trusted deployments use.
type Options struct {
	// APIKeys, when non-empty, requires every /v1 request to carry
	// "Authorization: Bearer <key>" with one of the listed keys.
	APIKeys []string
	// RatePerSec, when positive, rate-limits requests per API key (or per
	// remote host on an open server) to buckets of Burst tokens; Burst must
	// then be at least 1.
	RatePerSec float64
	Burst      float64
	// Logger receives structured request and error logs. Nil discards
	// them, which keeps tests and embedded uses quiet by default.
	Logger *slog.Logger
	// RequestTimeout is each request's deadline: the request context
	// reports it, a body still arriving at it is cut off, and a handler
	// that returns past it with nothing written is answered 503. A
	// handler that cannot be cancelled is not abandoned; it answers for
	// itself when it returns. Session routes carry none. 0 disables.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing requests per route. Excess
	// load is shed immediately with 429 + Retry-After instead of
	// queueing. 0 disables.
	MaxInFlight int
	// Leader, when set, is the leader's base URL, named in the X-Leader
	// header of the 503 a mutating route answers while the system is
	// read-only (a replication follower); empty omits the header.
	Leader string
	// Sessions, when set, mounts the live session plane under
	// /v1/sessions/* (paired GWAP matchmaking, long-poll event streams,
	// replay fallback). Nil leaves the routes unregistered; followers run
	// without a plane since sessions are leader-local in-memory state.
	Sessions *session.Plane
}

// authLimiter implements the auth + rate-limit middleware.
type authLimiter struct {
	// keys maps each accepted API key to its idempotency scope (see
	// principalScope), hashed here once instead of on every write.
	keys map[string]string
	anon string // the scope of an open server's one anonymous caller

	mu      sync.Mutex // guards limiter
	limiter *antifraud.RateLimiter
}

func newAuthLimiter(o Options) *authLimiter {
	a := &authLimiter{anon: principalScope("")}
	// Blank keys are dropped, not registered: a list like "a,b," (a flag
	// split artifact) must never let the empty bearer token through. A key
	// list with only blanks fails closed — auth on, nothing accepted.
	if len(o.APIKeys) > 0 {
		a.keys = make(map[string]string, len(o.APIKeys))
		for _, k := range o.APIKeys {
			if k = strings.TrimSpace(k); k != "" {
				a.keys[k] = principalScope(k)
			}
		}
	}
	if o.RatePerSec > 0 {
		a.limiter = antifraud.NewRateLimiter(o.RatePerSec, o.Burst)
	}
	return a
}

// bearer extracts the bearer token, or "" when absent.
func bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if strings.HasPrefix(h, prefix) {
		return strings.TrimSpace(h[len(prefix):])
	}
	return ""
}

// principalScope condenses a caller's principal — the API key on an
// authenticated server, "" on an open one — into a fixed-width segment of
// the idempotency cache key. Hashing keeps raw API keys out of cache
// memory; the empty principal hashes too, so the key shape is uniform.
func principalScope(principal string) string {
	sum := sha256.Sum256([]byte(principal))
	return hex.EncodeToString(sum[:8])
}

// allow reports whether principal may act now, consuming a token if so.
func (a *authLimiter) allow(principal string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limiter.Allow(principal, time.Now())
}

// wrap guards next with key auth and rate limiting when configured, and
// names the caller on the exchange: downstream middleware (the
// idempotency replay cache) scopes per-caller state by e.scope.
func (a *authLimiter) wrap(next handler) handler {
	return func(e *exchange, r *http.Request) {
		// An open server limits by host: keying by host:port would hand
		// every new connection a fresh bucket.
		principal, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			principal = r.RemoteAddr
		}
		e.scope = a.anon
		if a.keys != nil {
			// bearer() returns "" for an absent or malformed header; reject
			// it before the map lookup so no key-set mishap (an empty string
			// slipping into the keys) can ever open the server.
			key := bearer(r)
			scope, ok := a.keys[key]
			if key == "" || !ok {
				writeJSON(e, http.StatusUnauthorized, errorResponse{
					Error: "dispatch: missing or invalid API key", RequestID: e.id})
				return
			}
			principal, e.scope = key, scope
		}
		if a.limiter != nil && !a.allow(principal) {
			// The hint a well-behaved client (Client's retry loop
			// included) waits out before trying again.
			e.Header().Set("Retry-After", "1")
			writeJSON(e, http.StatusTooManyRequests, errorResponse{
				Error: "dispatch: rate limit exceeded", RequestID: e.id})
			return
		}
		next(e, r)
	}
}
