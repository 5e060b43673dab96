package sim

// This file holds the crowd-side helpers for driving a live dispatch
// service: given leased task views, a modeled worker produces the answers
// a human would, one view at a time or a whole leased batch at once. The
// helpers speak only task views and answers — no HTTP — so hcsim's
// single-call and batched paths share one crowd model.

import (
	"humancomp/internal/task"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// labelGuesses is how many tag guesses a worker volunteers per labeling
// task, mirroring an ESP-style round where a player types a few words
// before moving on.
const labelGuesses = 3

// LabelAnswer produces one modeled human answer for a leased labeling
// task: up to labelGuesses tags the worker believes describe the image,
// falling back to a random lexicon word when the worker has nothing (an
// answer must carry at least one word).
func LabelAnswer(w *worker.Worker, corpus *vocab.Corpus, v task.View) task.Answer {
	img := corpus.Image(v.Payload.ImageID)
	said := map[int]bool{}
	var words []int
	for k := 0; k < labelGuesses; k++ {
		tag := w.GuessTag(corpus.Lexicon, img, nil, said)
		if tag < 0 {
			break
		}
		said[corpus.Lexicon.Canonical(tag)] = true
		words = append(words, tag)
	}
	if len(words) == 0 {
		words = []int{corpus.Lexicon.Sample()}
	}
	return task.Answer{Words: words}
}

// LabelAnswers answers a whole leased batch, index-aligned with views —
// the crowd side of the batched data plane.
func LabelAnswers(w *worker.Worker, corpus *vocab.Corpus, views []task.View) []task.Answer {
	out := make([]task.Answer, len(views))
	for i, v := range views {
		out[i] = LabelAnswer(w, corpus, v)
	}
	return out
}

// ChoiceAnswer produces one modeled human vote for a leased choice task
// (Compare/Judge): the worker votes on the binary truth supplied by the
// experiment's ground-truth table. truthOf maps a task's ImageID to its
// true class.
func ChoiceAnswer(w *worker.Worker, v task.View, truthOf func(imageID int) int) task.Answer {
	return task.Answer{Choice: w.Vote(truthOf(v.Payload.ImageID), 2)}
}

// ChoiceVotes precomputes every worker's would-be vote on every choice
// task: votes[t][w] is worker w's vote on task t whose true class is
// truth[t]. Experiments that compare completion policies over the same
// crowd replay one table in every arm, so the arms differ only in which
// votes get collected — a paired design that removes vote-sampling noise
// from the comparison.
func ChoiceVotes(ws []*worker.Worker, truth []int, classes int) [][]int {
	votes := make([][]int, len(truth))
	for t, tr := range truth {
		votes[t] = make([]int, len(ws))
		for i, w := range ws {
			votes[t][i] = w.Vote(tr, classes)
		}
	}
	return votes
}
