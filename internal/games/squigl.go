package games

import (
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// SquiglConfig parameterizes a Squigl game.
type SquiglConfig struct {
	// AgreeIoU is the overlap two traces need to count as agreement.
	AgreeIoU float64
	// MinTracesForOutline is how many agreed traces an object needs
	// before the store emits a final outline.
	MinTracesForOutline int
	Seed                uint64
}

// DefaultSquiglConfig mirrors deployed play: substantial but not
// pixel-perfect overlap (0.5), three agreed traces per outline.
func DefaultSquiglConfig() SquiglConfig {
	return SquiglConfig{AgreeIoU: 0.5, MinTracesForOutline: 3, Seed: 1}
}

// SquiglRound summarizes one trace round.
type SquiglRound struct {
	ImageID  int
	Word     int
	Agreed   bool
	IoU      float64    // overlap between the two traces
	Trace    vocab.Rect // the stored consensus trace, meaningful iff Agreed
	Duration time.Duration
}

// Squigl is the output-agreement game for object outlines: both players
// see the same image and word and independently trace the object; they
// score when their traces agree (high overlap). Agreed traces are the
// validated output — tighter localizations than Peekaboom's click clouds,
// at the cost of more effort per round.
type Squigl struct {
	Corpus *vocab.Corpus
	Traces *TraceStore
	cfg    SquiglConfig
	src    *rng.Source
}

// NewSquigl returns a game over corpus with the given configuration.
func NewSquigl(corpus *vocab.Corpus, cfg SquiglConfig) *Squigl {
	if cfg.AgreeIoU <= 0 || cfg.AgreeIoU > 1 {
		panic("games: Squigl AgreeIoU must be in (0, 1]")
	}
	if cfg.MinTracesForOutline < 1 {
		panic("games: Squigl MinTracesForOutline must be >= 1")
	}
	return &Squigl{
		Corpus: corpus,
		Traces: NewTraceStore(cfg.MinTracesForOutline),
		cfg:    cfg,
		src:    rng.New(cfg.Seed),
	}
}

// Play traces a random real object; an agreed trace is one output.
func (g *Squigl) Play(a, b *worker.Worker) (int, time.Duration) {
	imgID, word := pickObject(g.src, g.Corpus)
	res := g.PlayRound(a, b, imgID, word)
	return oneIf(res.Agreed), res.Duration
}

// PlayRound has both players trace the object; if the traces overlap at
// AgreeIoU or better, their intersection-leaning consensus is recorded.
func (g *Squigl) PlayRound(a, b *worker.Worker, imageID, word int) SquiglRound {
	ta := a.TraceBox(g.Corpus, imageID, word)
	tb := b.TraceBox(g.Corpus, imageID, word)
	res := SquiglRound{
		ImageID:  imageID,
		Word:     word,
		IoU:      ta.IoU(tb),
		Duration: a.ThinkTime() + b.ThinkTime(),
	}
	if res.IoU < g.cfg.AgreeIoU {
		return res
	}
	res.Agreed = true
	res.Trace = consensus(ta, tb)
	g.Traces.Record(imageID, word, res.Trace)
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

// TraceStore accumulates agreed traces per (image, word) and fits a final
// outline as the median of the trace corners — robust to the occasional
// agreed-but-sloppy pair.
type TraceStore struct {
	minTraces int
	traces    map[objectKey][]vocab.Rect
}

// NewTraceStore returns an empty store requiring minTraces per outline.
func NewTraceStore(minTraces int) *TraceStore {
	return &TraceStore{minTraces: minTraces, traces: make(map[objectKey][]vocab.Rect)}
}

// Record appends one agreed trace.
func (s *TraceStore) Record(image, word int, r vocab.Rect) {
	k := objectKey{image, word}
	s.traces[k] = append(s.traces[k], r)
}
