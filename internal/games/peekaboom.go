package games

import (
	"math"
	"sort"
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Ping is one reveal click.
type Ping struct {
	X, Y int
}

// Peekaboom's rules, as deployed: a handful of reveals, guesses to match,
// boxes fit from at least a dozen pings with 10% tails trimmed.
const (
	// peekaboomMaxPings bounds Boom's reveals per round.
	peekaboomMaxPings = 8
	// peekaboomMaxGuesses bounds Peek's guesses per round.
	peekaboomMaxGuesses = 6
	// minPingsForBox is how many accumulated pings an object needs before
	// BoxStore will emit a bounding box for it.
	minPingsForBox = 12
	// boxTrim is the fraction trimmed from each coordinate tail when
	// fitting the box — the robustness knob that rejects stray clicks.
	boxTrim = 0.1
)

// PeekaboomRound summarizes one Boom/Peek round.
type PeekaboomRound struct {
	ImageID  int
	Word     int
	Solved   bool
	Pings    []Ping
	Tries    int
	Duration time.Duration
}

// Peekaboom is the inversion-problem game that locates objects inside
// images. "Boom" sees the image and a target word and reveals the image to
// "Peek" one click at a time; Peek types guesses until they hit the word.
// A solved round certifies that the revealed clicks were informative, so
// the clicks from many solved rounds aggregate into a bounding box for the
// object.
type Peekaboom struct {
	Corpus *vocab.Corpus
	Boxes  *BoxStore
	src    *rng.Source
}

// NewPeekaboom returns a game over corpus whose random draws are seeded
// with seed.
func NewPeekaboom(corpus *vocab.Corpus, seed uint64) *Peekaboom {
	return &Peekaboom{
		Corpus: corpus,
		Boxes:  NewBoxStore(),
		src:    rng.New(seed),
	}
}

// Play locates a random real object, as the deployed server's task
// generator did; a solved round is one output.
func (g *Peekaboom) Play(boom, peek *worker.Worker) (int, time.Duration) {
	imgID, word := pickObject(g.src, g.Corpus)
	res := g.PlayRound(boom, peek, imgID, word)
	return oneIf(res.Solved), res.Duration
}

// PlayRound runs one round: boom reveals, peek guesses. Pings from solved
// rounds are recorded into the box store.
func (g *Peekaboom) PlayRound(boom, peek *worker.Worker, imageID, word int) PeekaboomRound {
	round, elapsed := playInversion(g.src, g.Corpus.Lexicon, word, peekaboomMaxPings, peekaboomMaxGuesses, boom, peek,
		func(int) Ping {
			x, y := boom.Ping(g.Corpus, imageID, word)
			return Ping{X: x, Y: y}
		},
		// The chance of recognizing the object grows with revealed area.
		func(k int, _ Ping) float64 { return 1 - math.Exp(-float64(k+1)/2) })
	res := PeekaboomRound{
		ImageID:  imageID,
		Word:     word,
		Solved:   round.Solved(),
		Pings:    round.Hints(),
		Tries:    round.Tries(),
		Duration: elapsed,
	}
	if res.Solved {
		g.Boxes.Record(imageID, word, res.Pings)
	}
	return res
}

// BoxStore accumulates validated pings per (image, word) and fits robust
// bounding boxes from them.
type BoxStore struct {
	pings map[objectKey][]Ping
}

// NewBoxStore returns an empty store.
func NewBoxStore() *BoxStore {
	return &BoxStore{pings: make(map[objectKey][]Ping)}
}

// Record appends validated pings for the object named word in image.
func (s *BoxStore) Record(image, word int, pings []Ping) {
	k := objectKey{image, word}
	s.pings[k] = append(s.pings[k], pings...)
}

// Box fits the trimmed bounding box of the accumulated pings. ok is false
// until minPingsForBox pings have been gathered.
func (s *BoxStore) Box(image, word int) (vocab.Rect, bool) {
	ps := s.pings[objectKey{image, word}]
	if len(ps) < minPingsForBox {
		return vocab.Rect{}, false
	}
	xs := make([]int, len(ps))
	ys := make([]int, len(ps))
	for i, p := range ps {
		xs[i], ys[i] = p.X, p.Y
	}
	sort.Ints(xs)
	sort.Ints(ys)
	// A variable, so the scale below is float64 arithmetic, not a
	// constant expression folded exactly.
	trim := float64(boxTrim)
	lo := int(float64(len(ps)) * trim)
	hi := len(ps) - 1 - lo
	// The [trim, 1-trim] quantile range of uniformly distributed clicks
	// covers only (1-2·trim) of the object's extent; inflate the fitted
	// box around its center to undo that shrinkage (an unbiased width
	// estimate for in-box clicks, which stray clicks barely perturb after
	// trimming).
	scale := 1 / (1 - 2*trim)
	w := float64(xs[hi]-xs[lo]+1) * scale
	h := float64(ys[hi]-ys[lo]+1) * scale
	cx := float64(xs[hi]+xs[lo]+1) / 2
	cy := float64(ys[hi]+ys[lo]+1) / 2
	r := vocab.Rect{
		X: int(cx - w/2),
		Y: int(cy - h/2),
		W: int(w + 0.5),
		H: int(h + 0.5),
	}
	return r, true
}
