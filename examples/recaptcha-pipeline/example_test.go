// Package recaptchapipeline digitizes a synthetic scanned book, run as a
// testable example:
//
//	go test -v -run Example ./examples/recaptcha-pipeline
package recaptchapipeline

import (
	"fmt"

	"humancomp/internal/ocr"
	"humancomp/internal/recaptcha"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// Two OCR engines read every word of a synthetic scanned book; words
// they agree on pass through automatically, the rest are served as
// CAPTCHA challenges to a simulated crowd whose votes resolve them. The
// final accuracy is audited against the hidden ground truth and compared
// with the OCR-only baselines.
func Example() {
	lex := vocab.NewLexicon(vocab.DefaultLexiconConfig())

	// A 10,000-word "book" scanned at the degradation of old newspaper
	// archives — the regime where plain OCR sits in the low-80s and the
	// human pipeline is worth building.
	// Degradation calibrated so the one-OCR baseline lands near the
	// published 83.5%; the pipeline's job is closing the rest of the gap.
	book := ocr.SyntheticDocument(lex, ocr.DocumentConfig{
		NumWords: 10000,
		DegMean:  0.07,
		DegSD:    0.12,
		Seed:     3,
	})

	engineA := ocr.NewEngine("tesseract-sim", 0.99, 0.7, 10)
	engineB := ocr.NewEngine("abbyy-sim", 0.985, 0.6, 11)

	// Bootstrap control words (known answers used to verify humanity).
	seeds := make([]ocr.Word, 40)
	for i := range seeds {
		seeds[i] = ocr.Word{Text: lex.Word(i).Text, Degradation: 0.4}
	}
	pipe := recaptcha.NewPipeline([]*ocr.Engine{engineA, engineB}, lex, seeds, recaptcha.DefaultConfig())

	ingest := pipe.Ingest(book)
	fmt.Printf("ingested %d words: %d auto-accepted by OCR consensus, %d suspicious\n",
		ingest.Total, ingest.Auto, ingest.Suspicious)

	// The CAPTCHA-solving crowd: 100 web users typing two words each visit.
	src := rng.New(4)
	humans := make([]*worker.Worker, 100)
	for i := range humans {
		p := worker.SampleProfile(worker.DefaultPopulationConfig(100), src)
		humans[i] = worker.New(fmt.Sprintf("user%03d", i), worker.Honest, p, src)
	}

	submissions := 0
	for {
		ch, ok := pipe.NextChallenge()
		if !ok {
			break
		}
		h := humans[submissions%len(humans)]
		truth, deg := pipe.Truth(ch.Word)
		humanOK, _, err := pipe.Submit(ch, h.ID,
			h.Transcribe(truth, deg),                             // unknown word
			h.Transcribe(ch.ControlTruth, ch.ControlDegradation)) // control word
		if err != nil {
			panic(err)
		}
		_ = humanOK
		submissions++
		if submissions > 40*ingest.Suspicious {
			break // vote budget exhausted
		}
	}

	rep := pipe.Report()
	baseOne := recaptcha.BaselineOneOCR(ocr.NewEngine("baseline", 0.99, 0.7, 12), book)
	baseTwo := recaptcha.BaselineTwoOCR(
		ocr.NewEngine("baseA", 0.99, 0.7, 13),
		ocr.NewEngine("baseB", 0.985, 0.6, 14), book)

	fmt.Printf("\nhuman submissions: %d (%d passed the control word, %d failed)\n",
		submissions, rep.HumanPasses, rep.HumanFailures)
	fmt.Printf("resolved %d/%d words (%.1f%% coverage), %d unreadable\n",
		rep.Resolved, rep.Total, 100*rep.Coverage, rep.Unreadable)
	fmt.Printf("\nword accuracy vs ground truth:\n")
	fmt.Printf("  one OCR engine:        %.1f%%\n", 100*baseOne)
	fmt.Printf("  two engines + vote:    %.1f%%\n", 100*baseTwo)
	fmt.Printf("  reCAPTCHA pipeline:    %.1f%%\n", 100*rep.Accuracy)

	// Output:
	// ingested 10000 words: 7087 auto-accepted by OCR consensus, 2913 suspicious
	//
	// human submissions: 15880 (11946 passed the control word, 3934 failed)
	// resolved 9999/10000 words (100.0% coverage), 1 unreadable
	//
	// word accuracy vs ground truth:
	//   one OCR engine:        82.1%
	//   two engines + vote:    94.8%
	//   reCAPTCHA pipeline:    99.8%
}
