// Package antifraud implements the cheating defenses the GWAP systems
// layered on top of random pairing and taboo words:
//
//   - rate limiting, so scripted players cannot flood the system;
//   - answer-entropy testing, which catches players whose agreed outputs
//     concentrate on a few scripted words ("always type X first");
//   - pair-bias detection, which catches couples who agree with each other
//     far more often than either agrees with strangers — the signature of
//     collusion surviving random pairing.
//
// All detectors take explicit timestamps/observations, so they run under
// the simulator's virtual clock and the dispatch service's wall clock alike.
package antifraud

import (
	"math"
	"time"
)

// RateLimiter is a per-key token bucket. Buckets that have refilled to
// burst are swept once per refill window, so the map holds only keys seen
// within about the last two windows.
type RateLimiter struct {
	rate   float64 // tokens per second
	burst  float64
	window time.Duration // burst/rate: the time an empty bucket takes to refill
	swept  time.Time
	state  map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter returns a limiter granting rate actions per second with
// the given burst capacity.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	if rate <= 0 || burst < 1 {
		panic("antifraud: rate must be positive and burst >= 1")
	}
	return &RateLimiter{
		rate:   rate,
		burst:  burst,
		window: time.Duration(math.Ceil(burst / rate * float64(time.Second))),
		state:  make(map[string]*bucket),
	}
}

// Allow reports whether key may act at time now, consuming a token if so.
func (l *RateLimiter) Allow(key string, now time.Time) bool {
	if now.Sub(l.swept) >= l.window {
		l.sweep(now)
	}
	b := l.state[key]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.state[key] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweep drops every bucket that has refilled to burst by now. Such a
// bucket cannot be told apart from an absent one (Allow would create it
// full), so no limiting decision changes.
func (l *RateLimiter) sweep(now time.Time) {
	for k, b := range l.state {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.state, k)
		}
	}
	l.swept = now
}

// EntropyDetector flags players whose agreed outputs have suspiciously low
// entropy. Honest players' agreements track image content and spread over
// the vocabulary; a colluder's agreements pile onto the scripted word.
type EntropyDetector struct {
	minSamples int
	minEntropy float64 // bits
	counts     map[string]map[int]int
	totals     map[string]int
}

// NewEntropyDetector flags players with at least minSamples agreements
// whose output entropy is below minEntropy bits.
func NewEntropyDetector(minSamples int, minEntropy float64) *EntropyDetector {
	if minSamples < 1 {
		panic("antifraud: minSamples must be >= 1")
	}
	return &EntropyDetector{
		minSamples: minSamples,
		minEntropy: minEntropy,
		counts:     make(map[string]map[int]int),
		totals:     make(map[string]int),
	}
}

// Record notes that player reached agreement on word.
func (d *EntropyDetector) Record(player string, word int) {
	m := d.counts[player]
	if m == nil {
		m = make(map[int]int)
		d.counts[player] = m
	}
	m[word]++
	d.totals[player]++
}

// Entropy returns the Shannon entropy (bits) of the player's agreement
// distribution, or +Inf when the player has no observations.
func (d *EntropyDetector) Entropy(player string) float64 {
	total := d.totals[player]
	if total == 0 {
		return math.Inf(1)
	}
	h := 0.0
	for _, c := range d.counts[player] {
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// ModalShare returns the fraction of the player's agreements that landed
// on their single most-agreed word, or 0 with no observations. A scripted
// colluder's modal share is dominated by the scripted word (~0.4+ even
// when spam fallback dilutes their entropy), while honest players track
// image content and stay near the Zipf head probability (~0.1).
func (d *EntropyDetector) ModalShare(player string) float64 {
	total := d.totals[player]
	if total == 0 {
		return 0
	}
	best := 0
	for _, c := range d.counts[player] {
		if c > best {
			best = c
		}
	}
	return float64(best) / float64(total)
}

// Suspicious reports whether the player has enough observations and either
// too little output entropy or a dominant scripted word. The modal-share
// rule needs twice the sample floor: with only a handful of agreements an
// honest player's Zipf-head repeats can top 30% by luck.
func (d *EntropyDetector) Suspicious(player string) bool {
	if d.totals[player] < d.minSamples {
		return false
	}
	if d.Entropy(player) < d.minEntropy {
		return true
	}
	return d.totals[player] >= 2*d.minSamples && d.ModalShare(player) > 0.3
}

// PairBias flags pairs of players who agree with each other far more often
// than their individual agreement rates predict.
type PairBias struct {
	minGames int
	factor   float64
	pair     map[[2]string]*tally
	player   map[string]*tally
}

type tally struct{ agreed, total int }

// NewPairBias flags pairs with at least minGames games together whose
// pairwise agreement rate exceeds factor × the rate predicted by the two
// players' overall behavior.
func NewPairBias(minGames int, factor float64) *PairBias {
	if minGames < 1 || factor <= 1 {
		panic("antifraud: minGames must be >= 1 and factor > 1")
	}
	return &PairBias{
		minGames: minGames,
		factor:   factor,
		pair:     make(map[[2]string]*tally),
		player:   make(map[string]*tally),
	}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// RecordRound notes one game between a and b and whether it ended in
// agreement.
func (p *PairBias) RecordRound(a, b string, agreed bool) {
	for _, t := range []*tally{p.getPair(a, b), p.getPlayer(a), p.getPlayer(b)} {
		t.total++
		if agreed {
			t.agreed++
		}
	}
}

func (p *PairBias) getPair(a, b string) *tally {
	k := pairKey(a, b)
	t := p.pair[k]
	if t == nil {
		t = &tally{}
		p.pair[k] = t
	}
	return t
}

func (p *PairBias) getPlayer(id string) *tally {
	t := p.player[id]
	if t == nil {
		t = &tally{}
		p.player[id] = t
	}
	return t
}

func rate(t *tally) float64 {
	if t == nil || t.total == 0 {
		return 0
	}
	return float64(t.agreed) / float64(t.total)
}

// Suspicious reports whether the pair has enough games together and an
// agreement rate exceeding factor × the geometric mean of the two players'
// agreement rates with *other* partners (the rate independence would
// predict). Pairs who play only each other — sock puppets — are flagged on
// pair rate alone.
func (p *PairBias) Suspicious(a, b string) bool {
	t := p.pair[pairKey(a, b)]
	if t == nil || t.total < p.minGames {
		return false
	}
	oa := p.outside(a, t)
	ob := p.outside(b, t)
	if oa.total == 0 || ob.total == 0 {
		// Players with no games against strangers cannot establish a
		// baseline; an always-agreeing isolated pair is the sock-puppet
		// signature.
		return rate(t) > 0.8
	}
	expected := math.Sqrt(rate(&oa) * rate(&ob))
	if expected == 0 {
		// Never agree with strangers, yet agree with each other: the
		// purest collusion signal there is.
		return rate(t) > 0
	}
	return rate(t) > p.factor*expected
}

// outside returns id's tally excluding the games counted in pairT.
func (p *PairBias) outside(id string, pairT *tally) tally {
	pt := p.player[id]
	if pt == nil {
		return tally{}
	}
	return tally{agreed: pt.agreed - pairT.agreed, total: pt.total - pairT.total}
}
