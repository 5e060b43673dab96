package vocab

import (
	"fmt"

	"humancomp/internal/rng"
)

// Rect is an axis-aligned rectangle in image pixel coordinates.
// X, Y is the top-left corner; the rectangle spans [X, X+W) × [Y, Y+H).
type Rect struct {
	X, Y, W, H int
}

// Area returns the rectangle's area in pixels.
func (r Rect) Area() int {
	if r.W <= 0 || r.H <= 0 {
		return 0
	}
	return r.W * r.H
}

// Intersect returns the intersection of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	x1 := max(r.X, o.X)
	y1 := max(r.Y, o.Y)
	x2 := min(r.X+r.W, o.X+o.W)
	y2 := min(r.Y+r.H, o.Y+o.H)
	if x2 <= x1 || y2 <= y1 {
		return Rect{}
	}
	return Rect{X: x1, Y: y1, W: x2 - x1, H: y2 - y1}
}

// IoU returns the intersection-over-union of r and o in [0, 1].
// It is the standard object-localization score used to evaluate
// Peekaboom's aggregated bounding boxes against ground truth.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	union := r.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Object is a ground-truth object inside an image.
type Object struct {
	Tag      int     // lexicon word ID naming the object
	Box      Rect    // true location
	Salience float64 // relative probability a human mentions this object
}

// Image is a synthetic image: a canvas with ground-truth objects and a
// latent aesthetic score used by the Matchin preference game.
type Image struct {
	ID        int
	Width     int
	Height    int
	Objects   []Object
	Aesthetic float64 // in (0, 1); higher images win Matchin comparisons more often
}

// Corpus is a deterministic synthetic image collection over a Lexicon.
type Corpus struct {
	Lexicon *Lexicon
	Images  []Image
}

// CorpusConfig parameterizes NewCorpus.
type CorpusConfig struct {
	Lexicon     LexiconConfig
	NumImages   int
	MeanObjects float64 // Poisson mean number of objects per image (min 1)
	CanvasW     int
	CanvasH     int
	Seed        uint64
}

// DefaultCorpusConfig returns the corpus used by the experiments: 2,000
// images on a 640×480 canvas averaging four objects each.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		Lexicon:     DefaultLexiconConfig(),
		NumImages:   2000,
		MeanObjects: 4,
		CanvasW:     640,
		CanvasH:     480,
		Seed:        2,
	}
}

// NewCorpus builds a deterministic corpus from cfg.
func NewCorpus(cfg CorpusConfig) *Corpus {
	if cfg.NumImages <= 0 {
		panic("vocab: corpus must contain at least one image")
	}
	if cfg.CanvasW <= 0 || cfg.CanvasH <= 0 {
		panic("vocab: corpus canvas dimensions must be positive")
	}
	lex := NewLexicon(cfg.Lexicon)
	src := rng.New(cfg.Seed)
	c := &Corpus{Lexicon: lex, Images: make([]Image, cfg.NumImages)}
	for i := range c.Images {
		n := src.Poisson(cfg.MeanObjects)
		if n < 1 {
			n = 1
		}
		img := Image{
			ID:        i,
			Width:     cfg.CanvasW,
			Height:    cfg.CanvasH,
			Objects:   make([]Object, 0, n),
			Aesthetic: src.Float64(),
		}
		seen := make(map[int]bool, n)
		for len(img.Objects) < n {
			tag := lex.SampleFrom(src)
			if seen[lex.Canonical(tag)] {
				// Re-draw rather than place two copies of one concept; a
				// bounded number of retries keeps generation total.
				if len(seen) >= lex.Size() {
					break
				}
				continue
			}
			seen[lex.Canonical(tag)] = true
			w := 20 + src.Intn(cfg.CanvasW/2)
			h := 20 + src.Intn(cfg.CanvasH/2)
			box := Rect{
				X: src.Intn(cfg.CanvasW - w),
				Y: src.Intn(cfg.CanvasH - h),
				W: w,
				H: h,
			}
			// Salience decays with draw order: the first-drawn (most
			// popular) objects are also the ones players notice first.
			sal := 1.0 / float64(len(img.Objects)+1)
			img.Objects = append(img.Objects, Object{Tag: tag, Box: box, Salience: sal})
		}
		c.Images[i] = img
	}
	return c
}

// Image returns the image with the given ID; it panics on out-of-range IDs.
func (c *Corpus) Image(id int) *Image {
	if id < 0 || id >= len(c.Images) {
		panic(fmt.Sprintf("vocab: image ID %d out of range [0,%d)", id, len(c.Images)))
	}
	return &c.Images[id]
}

// IsTrueTag reports whether word names an object in the image, accepting
// synonyms: "couch" counts when the ground truth says "sofa".
func (c *Corpus) IsTrueTag(imageID, word int) bool {
	img := c.Image(imageID)
	for _, o := range img.Objects {
		if c.Lexicon.AreSynonyms(o.Tag, word) {
			return true
		}
	}
	return false
}

// TrueBox returns the ground-truth box for the object named by word in the
// image (synonym-aware), and whether such an object exists.
func (c *Corpus) TrueBox(imageID, word int) (Rect, bool) {
	img := c.Image(imageID)
	for _, o := range img.Objects {
		if c.Lexicon.AreSynonyms(o.Tag, word) {
			return o.Box, true
		}
	}
	return Rect{}, false
}
