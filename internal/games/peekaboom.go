package games

import (
	"math"
	"sort"
	"time"

	"humancomp/internal/agree"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Ping is one reveal click.
type Ping struct {
	X, Y int
}

// PeekaboomConfig parameterizes a Peekaboom game.
type PeekaboomConfig struct {
	Mode agree.MatchMode
	// MaxPings bounds Boom's reveals per round.
	MaxPings int
	// MaxGuesses bounds Peek's guesses per round.
	MaxGuesses int
	// MinPingsForBox is how many accumulated pings an object needs before
	// BoxStore will emit a bounding box for it.
	MinPingsForBox int
	// TrimFraction is the fraction trimmed from each coordinate tail when
	// fitting the box — the robustness knob that rejects stray clicks.
	TrimFraction float64
	Seed         uint64
}

// DefaultPeekaboomConfig mirrors deployed play: a handful of reveals,
// guesses to match, boxes fit from at least a dozen pings with 10% tails
// trimmed.
func DefaultPeekaboomConfig() PeekaboomConfig {
	return PeekaboomConfig{
		Mode:           agree.Canonical,
		MaxPings:       8,
		MaxGuesses:     6,
		MinPingsForBox: 12,
		TrimFraction:   0.1,
		Seed:           1,
	}
}

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
	cfg    PeekaboomConfig
	src    *rng.Source
}

// NewPeekaboom returns a game over corpus with the given configuration.
func NewPeekaboom(corpus *vocab.Corpus, cfg PeekaboomConfig) *Peekaboom {
	if cfg.MaxPings < 1 || cfg.MaxGuesses < 1 {
		panic("games: Peekaboom MaxPings and MaxGuesses must be >= 1")
	}
	if cfg.TrimFraction < 0 || cfg.TrimFraction >= 0.5 {
		panic("games: Peekaboom TrimFraction must be in [0, 0.5)")
	}
	return &Peekaboom{
		Corpus: corpus,
		Boxes:  NewBoxStore(cfg.MinPingsForBox, cfg.TrimFraction),
		cfg:    cfg,
		src:    rng.New(cfg.Seed),
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
	round, elapsed := playInversion(g.src, g.Corpus.Lexicon, g.cfg.Mode, word, g.cfg.MaxPings, g.cfg.MaxGuesses, boom, peek,
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
	minPings int
	trim     float64
	pings    map[objectKey][]Ping
}

// NewBoxStore returns an empty store requiring minPings pings per box and
// trimming trim from each coordinate tail.
func NewBoxStore(minPings int, trim float64) *BoxStore {
	return &BoxStore{minPings: minPings, trim: trim, pings: make(map[objectKey][]Ping)}
}

// Record appends validated pings for the object named word in image.
func (s *BoxStore) Record(image, word int, pings []Ping) {
	k := objectKey{image, word}
	s.pings[k] = append(s.pings[k], pings...)
}

// Pings returns how many validated pings the object has accumulated.
func (s *BoxStore) Pings(image, word int) int { return len(s.pings[objectKey{image, word}]) }

// Box fits the trimmed bounding box of the accumulated pings. ok is false
// until MinPingsForBox pings have been gathered.
func (s *BoxStore) Box(image, word int) (vocab.Rect, bool) {
	ps := s.pings[objectKey{image, word}]
	if len(ps) < s.minPings {
		return vocab.Rect{}, false
	}
	xs := make([]int, len(ps))
	ys := make([]int, len(ps))
	for i, p := range ps {
		xs[i], ys[i] = p.X, p.Y
	}
	sort.Ints(xs)
	sort.Ints(ys)
	lo := int(float64(len(ps)) * s.trim)
	hi := len(ps) - 1 - lo
	// The [trim, 1-trim] quantile range of uniformly distributed clicks
	// covers only (1-2·trim) of the object's extent; inflate the fitted
	// box around its center to undo that shrinkage (an unbiased width
	// estimate for in-box clicks, which stray clicks barely perturb after
	// trimming).
	scale := 1.0
	if s.trim > 0 && s.trim < 0.5 {
		scale = 1 / (1 - 2*s.trim)
	}
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
