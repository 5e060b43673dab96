// Package captchagate is the CAPTCHA asymmetry demonstration, run as a
// testable example:
//
//	go test -v -run Example ./examples/captcha-gate
package captchagate

import (
	"fmt"
	"strings"

	"humancomp/internal/captcha"
	"humancomp/internal/rng"
	"humancomp/internal/vocab"
	"humancomp/internal/worker"
)

// A gate issues distorted-word challenges to a mixed stream of humans and
// OCR bots; the pass-rate gap is the security margin, and the sweep shows
// how distortion moves it — the design trade every CAPTCHA deployment
// makes.
func Example() {
	lex := vocab.NewLexicon(vocab.DefaultLexiconConfig())
	src := rng.New(11)

	humans := make([]*worker.Worker, 40)
	for i := range humans {
		p := worker.SampleProfile(worker.DefaultPopulationConfig(40), src)
		humans[i] = worker.New(fmt.Sprintf("h%02d", i), worker.Honest, p, src)
	}
	bot := captcha.NewBotSolver(0.5, 0.85, 12)

	fmt.Println("distortion  human-pass  bot-pass   margin")
	fmt.Println("----------  ----------  --------   ------")
	const trials = 3000
	for _, distortion := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		gate := captcha.NewGate(lex, distortion, 13)
		humanPass, botPass := 0, 0
		for i := 0; i < trials; i++ {
			// Human attempt.
			ch := gate.Issue()
			h := humans[i%len(humans)]
			if ok, _ := gate.Verify(ch.ID, h.Transcribe(ch.Secret(), ch.Distortion)); ok {
				humanPass++
			}
			// Bot attempt.
			ch = gate.Issue()
			if ok, _ := gate.Verify(ch.ID, bot.Solve(ch)); ok {
				botPass++
			}
		}
		hr := float64(humanPass) / trials
		br := float64(botPass) / trials
		bar := strings.Repeat("#", int(40*(hr-br)))
		fmt.Printf("%.2f        %5.1f%%      %5.1f%%    %s\n", distortion, 100*hr, 100*br, bar)
	}

	// The punchline: what the gate is worth. Each human pass is ~10 seconds
	// of focused human reading — reCAPTCHA recycles exactly that effort.
	gate := captcha.NewGate(lex, 0.5, 14)
	passes := 0
	for i := 0; i < trials; i++ {
		ch := gate.Issue()
		h := humans[i%len(humans)]
		if ok, _ := gate.Verify(ch.ID, h.Transcribe(ch.Secret(), ch.Distortion)); ok {
			passes++
		}
	}
	fmt.Printf("\nat distortion 0.50: %d challenges issued, %d passed\n", trials, passes)
	fmt.Printf("≈ %.1f human-hours of reading effort per million challenges — the resource reCAPTCHA recycles\n",
		float64(1_000_000)*10/3600)

	// Output:
	// distortion  human-pass  bot-pass   margin
	// ----------  ----------  --------   ------
	// 0.00         84.8%       18.3%    ##########################
	// 0.25         76.7%       11.5%    ##########################
	// 0.50         69.2%        6.5%    #########################
	// 0.75         61.8%        2.5%    #######################
	// 1.00         54.6%        0.6%    #####################
	//
	// at distortion 0.50: 3000 challenges issued, 2074 passed
	// ≈ 2777.8 human-hours of reading effort per million challenges — the resource reCAPTCHA recycles
}
