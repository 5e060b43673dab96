// Package search implements the consumer of the ESP Game's output: an
// inverted index over human-collected image labels with TF-IDF ranking.
// "Images labeled by people playing a game" only matters because those
// labels make images findable; this package closes that loop and also
// powers Phetch, the caption game whose seekers query exactly this index.
package search

import (
	"math"
	"sort"
)

// Index is an inverted index from label concepts to the items carrying
// them, with agreement counts as term frequencies.
type Index struct {
	postings map[int]map[int]int // word -> item -> weight (agreement count)
	itemLen  map[int]int         // item -> total label weight
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		postings: make(map[int]map[int]int),
		itemLen:  make(map[int]int),
	}
}

// Add records weight agreements on word for item. Weight must be positive.
func (ix *Index) Add(item, word, weight int) {
	if weight <= 0 {
		panic("search: weight must be positive")
	}
	m := ix.postings[word]
	if m == nil {
		m = make(map[int]int)
		ix.postings[word] = m
	}
	m[item] += weight
	ix.itemLen[item] += weight
}

// Hit is one ranked search result.
type Hit struct {
	Item  int
	Score float64
}

// Search ranks items by TF-IDF over the query words and returns the top k
// hits (fewer if the index has fewer matches). Duplicate query words count
// once; unknown words are ignored.
func (ix *Index) Search(query []int, k int) []Hit {
	if k <= 0 {
		return nil
	}
	n := float64(len(ix.itemLen))
	if n == 0 {
		return nil
	}
	seen := make(map[int]bool, len(query))
	scores := make(map[int]float64)
	for _, w := range query {
		if seen[w] {
			continue
		}
		seen[w] = true
		posting := ix.postings[w]
		if len(posting) == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(len(posting)))
		for item, weight := range posting {
			tf := float64(weight) / float64(ix.itemLen[item])
			scores[item] += tf * idf
		}
	}
	hits := make([]Hit, 0, len(scores))
	for item, s := range scores {
		hits = append(hits, Hit{Item: item, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Item < hits[j].Item
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// Rank returns the 1-based rank of target for the query, or 0 when the
// target does not match at all. It is the evaluation primitive: a good
// label set puts the right image at rank 1.
func (ix *Index) Rank(query []int, target int) int {
	hits := ix.Search(query, len(ix.itemLen))
	for i, h := range hits {
		if h.Item == target {
			return i + 1
		}
	}
	return 0
}
