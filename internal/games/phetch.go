package games

import (
	"time"

	"humancomp/internal/rng"
	"humancomp/internal/search"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Phetch's rules, as deployed: six-word captions, the first page of
// results, two clicks per seeker.
const (
	// maxCaptionWords bounds the describer's caption length.
	maxCaptionWords = 6
	// phetchTopK is how many search results a seeker inspects.
	phetchTopK = 8
	// maxSeekerClicks bounds each seeker's guesses per round.
	maxSeekerClicks = 2
)

// PhetchRound summarizes one caption round.
type PhetchRound struct {
	ImageID  int
	Caption  []int
	Solved   bool
	Finder   string // seeker who clicked the image, when Solved
	Rank     int    // search rank of the target under the caption (0 = unranked)
	Duration time.Duration
}

// Phetch is the game that collects natural-language image descriptions
// (the captions screen readers need): a describer writes a caption for a
// secret image; seekers feed the caption to an image search engine and
// click the image they believe it describes. A correct click validates the
// caption. The search engine is the label-powered index from
// internal/search — the output of one game is the substrate of the next,
// exactly the ecosystem the survey describes.
type Phetch struct {
	Corpus *vocab.Corpus
	Index  *search.Index
	src    *rng.Source
}

// NewPhetch returns a game whose seekers query ix and whose random draws
// are seeded with seed. The index is typically built from ESP labels (see
// the image-search example).
func NewPhetch(corpus *vocab.Corpus, ix *search.Index, seed uint64) *Phetch {
	return &Phetch{
		Corpus: corpus,
		Index:  ix,
		src:    rng.New(seed),
	}
}

// GroundTruthIndex returns a search index over corpus's true object tags,
// each canonicalised and added at weight 2: a stand-in for the ESP-label
// index the deployed ecosystem gave Phetch's seekers.
func GroundTruthIndex(corpus *vocab.Corpus) *search.Index {
	ix := search.NewIndex()
	for _, img := range corpus.Images {
		for _, obj := range img.Objects {
			ix.Add(img.ID, corpus.Lexicon.Canonical(obj.Tag), 2)
		}
	}
	return ix
}

// PickImage returns a random image ID.
func (g *Phetch) PickImage() int { return g.src.Intn(len(g.Corpus.Images)) }

// Play has one player describe a random image and the other seek it; a
// validated caption is one output.
func (g *Phetch) Play(describer, seeker *worker.Worker) (int, time.Duration) {
	res := g.PlayRound(describer, []*worker.Worker{seeker}, g.PickImage())
	return oneIf(res.Solved), res.Duration
}

// PlayRound runs one round: describer captions the image, each seeker
// searches with the caption and clicks among the top results. A correct
// click solves the round and validates its caption.
func (g *Phetch) PlayRound(describer *worker.Worker, seekers []*worker.Worker, imageID int) PhetchRound {
	img := g.Corpus.Image(imageID)
	res := PhetchRound{ImageID: imageID}

	// Caption: the describer's own description of the image.
	said := map[int]bool{}
	for len(res.Caption) < maxCaptionWords {
		res.Duration += describer.ThinkTime()
		tag := describer.GuessTag(g.Corpus.Lexicon, img, nil, said)
		if tag < 0 {
			break
		}
		said[g.Corpus.Lexicon.Canonical(tag)] = true
		res.Caption = append(res.Caption, g.Corpus.Lexicon.Canonical(tag))
	}
	if len(res.Caption) == 0 {
		return res
	}
	res.Rank = g.Index.Rank(res.Caption, imageID)

	hits := g.Index.Search(res.Caption, phetchTopK)
	for _, seeker := range seekers {
		for click := 0; click < maxSeekerClicks; click++ {
			res.Duration += seeker.ThinkTime()
			pick, ok := g.seekerPick(seeker, hits, imageID)
			if !ok {
				break
			}
			if pick == imageID {
				res.Solved = true
				res.Finder = seeker.ID
				return res
			}
		}
	}
	return res
}

// seekerPick models a seeker scanning the result page: a skilled seeker
// recognizes the described image when it is listed (probability Accuracy,
// discounted by how deep it sits); otherwise they click a plausible result
// at random. ok is false when the result page is empty.
func (g *Phetch) seekerPick(seeker *worker.Worker, hits []search.Hit, target int) (int, bool) {
	if len(hits) == 0 {
		return 0, false
	}
	for i, h := range hits {
		if h.Item != target {
			continue
		}
		depth := 1 - float64(i)/float64(2*len(hits)) // mild position discount
		if g.src.Bool(seeker.Profile.Accuracy * depth) {
			return target, true
		}
		break
	}
	return hits[g.src.Intn(len(hits))].Item, true
}
