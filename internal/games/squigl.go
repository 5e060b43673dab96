package games

import (
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// agreeIoU is the overlap two traces need to count as agreement: as
// deployed, substantial but not pixel-perfect.
const agreeIoU = 0.5

// SquiglRound summarizes one trace round.
type SquiglRound struct {
	ImageID  int
	Word     int
	Agreed   bool
	IoU      float64    // overlap between the two traces
	Trace    vocab.Rect // the consensus trace, meaningful iff Agreed
	Duration time.Duration
}

// Squigl is the output-agreement game for object outlines: both players
// see the same image and word and independently trace the object; they
// score when their traces agree (high overlap). Agreed traces are the
// validated output — tighter localizations than Peekaboom's click clouds,
// at the cost of more effort per round.
type Squigl struct {
	Corpus *vocab.Corpus
	src    *rng.Source
}

// NewSquigl returns a game over corpus whose random draws are seeded with
// seed.
func NewSquigl(corpus *vocab.Corpus, seed uint64) *Squigl {
	return &Squigl{
		Corpus: corpus,
		src:    rng.New(seed),
	}
}

// Play traces a random real object; an agreed trace is one output.
func (g *Squigl) Play(a, b *worker.Worker) (int, time.Duration) {
	imgID, word := pickObject(g.src, g.Corpus)
	res := g.PlayRound(a, b, imgID, word)
	return oneIf(res.Agreed), res.Duration
}

// PlayRound has both players trace the object; if the traces overlap at
// agreeIoU or better, their intersection-leaning consensus is the round's
// trace.
func (g *Squigl) PlayRound(a, b *worker.Worker, imageID, word int) SquiglRound {
	ta := a.TraceBox(g.Corpus, imageID, word)
	tb := b.TraceBox(g.Corpus, imageID, word)
	res := SquiglRound{
		ImageID:  imageID,
		Word:     word,
		IoU:      ta.IoU(tb),
		Duration: a.ThinkTime() + b.ThinkTime(),
	}
	if res.IoU < agreeIoU {
		return res
	}
	res.Agreed = true
	res.Trace = consensus(ta, tb)
	return res
}

// consensus averages the two traces corner-wise: the unbiased combination
// when both players jitter symmetrically around the truth.
func consensus(a, b vocab.Rect) vocab.Rect {
	x1 := (a.X + b.X) / 2
	y1 := (a.Y + b.Y) / 2
	x2 := (a.X + a.W + b.X + b.W) / 2
	y2 := (a.Y + a.H + b.Y + b.H) / 2
	return vocab.Rect{X: x1, Y: y1, W: max(x2-x1, 1), H: max(y2-y1, 1)}
}
