package search

import (
	"math"
	"testing"

	"humancomp/internal/rng"
)

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex()
	if got := ix.Search([]int{1, 2}, 5); got != nil {
		t.Fatalf("Search on empty = %v", got)
	}
	if ix.Rank([]int{1}, 1) != 0 {
		t.Fatal("Rank on empty should be 0")
	}
}

func TestExactMatchRanksFirst(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, 10, 3) // item 1: strongly "10"
	ix.Add(1, 11, 1)
	ix.Add(2, 12, 3) // item 2: strongly "12"
	ix.Add(3, 10, 1) // item 3: weakly "10"
	ix.Add(3, 12, 1)

	hits := ix.Search([]int{10}, 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Item != 1 {
		t.Fatalf("top hit = %d, want item 1 (highest tf)", hits[0].Item)
	}
	if ix.Rank([]int{10}, 1) != 1 || ix.Rank([]int{10}, 3) != 2 {
		t.Fatal("Rank inconsistent with Search")
	}
	if ix.Rank([]int{10}, 2) != 0 {
		t.Fatal("non-matching target should rank 0")
	}
}

func TestRareTermsWeighMore(t *testing.T) {
	ix := NewIndex()
	// "1" appears everywhere (stopword-like); "2" only on item 7.
	for item := 0; item < 20; item++ {
		ix.Add(item, 1, 1)
	}
	ix.Add(7, 2, 1)
	hits := ix.Search([]int{1, 2}, 1)
	if len(hits) == 0 || hits[0].Item != 7 {
		t.Fatalf("top hit = %v, want the item with the rare term", hits)
	}
}

// TestIDFCountsEachItemOnce pins the document count of the IDF to the
// distinct items: an item indexed under several words, or under one word
// twice, is one document.
func TestIDFCountsEachItemOnce(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, 10, 1)
	ix.Add(1, 11, 1)
	ix.Add(1, 11, 2)
	ix.Add(2, 12, 1)
	hits := ix.Search([]int{12}, 5)
	// Two documents, one holding "12" wholly: tf 1, idf log(1 + 2/1).
	if want := math.Log(3); len(hits) != 1 || math.Abs(hits[0].Score-want) > 1e-12 {
		t.Fatalf("hits = %v, want item 2 scored %v", hits, want)
	}
}

func TestDuplicateQueryWordsCountOnce(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, 5, 1)
	ix.Add(2, 6, 1)
	a := ix.Search([]int{5}, 5)
	b := ix.Search([]int{5, 5, 5}, 5)
	if len(a) != len(b) || a[0].Score != b[0].Score {
		t.Fatal("duplicate query words changed scoring")
	}
}

func TestKLimitsAndOrdering(t *testing.T) {
	ix := NewIndex()
	for item := 0; item < 10; item++ {
		ix.Add(item, 1, item+1)
		ix.Add(item, item+100, 1) // unique term each, varies itemLen
	}
	hits := ix.Search([]int{1}, 3)
	if len(hits) != 3 {
		t.Fatalf("k not honored: %d hits", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted by score")
		}
	}
	if ix.Search([]int{1}, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestAddPanicsOnBadWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add weight 0 did not panic")
		}
	}()
	NewIndex().Add(1, 1, 0)
}

func BenchmarkSearch(b *testing.B) {
	ix := NewIndex()
	src := rng.New(4)
	for item := 0; item < 5000; item++ {
		for k := 0; k < 5; k++ {
			ix.Add(item, src.Intn(2000), 1+src.Intn(3))
		}
	}
	query := []int{5, 17, 123}
	for b.Loop() {
		ix.Search(query, 10)
	}
}

// TestSearchProperties: scores are positive and adding weight to a term on
// an item never worsens that item's rank for the term.
func TestSearchProperties(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 100; trial++ {
		ix := NewIndex()
		nItems := 3 + src.Intn(20)
		for item := 0; item < nItems; item++ {
			for k := 0; k < 1+src.Intn(4); k++ {
				ix.Add(item, src.Intn(30), 1+src.Intn(3))
			}
		}
		term := src.Intn(30)
		target := src.Intn(nItems)
		before := ix.Rank([]int{term}, target)
		for _, h := range ix.Search([]int{term}, nItems) {
			if h.Score <= 0 {
				t.Fatalf("non-positive score %v", h.Score)
			}
		}
		ix.Add(target, term, 5)
		after := ix.Rank([]int{term}, target)
		if after == 0 {
			t.Fatal("target unranked after direct Add")
		}
		if before != 0 && after > before {
			t.Fatalf("adding term weight worsened rank: %d -> %d", before, after)
		}
	}
}
