// Package humancomp_test hosts the repository-level benchmark harness:
// one testing.B benchmark per evaluation table/figure (see DESIGN.md §4).
// Each benchmark regenerates its experiment end to end, so `go test
// -bench=.` re-derives every number reported in EXPERIMENTS.md at reduced
// scale; `cmd/hcbench` runs the same code at full scale.
package humancomp_test

import (
	"testing"

	"humancomp/internal/experiments"
)

// benchOpts is the reduced scale used under testing.B so a full -bench=.
// sweep stays in CI budget; cmd/hcbench uses Scale 1.
func benchOpts(seed uint64) experiments.Options {
	return experiments.Options{Seed: seed, Scale: 0.1}
}

func runExperiment(b *testing.B, run func(experiments.Options) experiments.Result) {
	b.Helper()
	for i := 0; b.Loop(); i++ {
		res := run(benchOpts(uint64(i + 1)))
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", res.ID)
		}
	}
}

func BenchmarkT1GWAPMetrics(b *testing.B)        { runExperiment(b, experiments.T1) }
func BenchmarkT2RecaptchaAccuracy(b *testing.B)  { runExperiment(b, experiments.T2) }
func BenchmarkF1AgreementThreshold(b *testing.B) { runExperiment(b, experiments.F1) }
func BenchmarkF2TabooDiversity(b *testing.B)     { runExperiment(b, experiments.F2) }
func BenchmarkF3PlayerScaling(b *testing.B)      { runExperiment(b, experiments.F3) }
func BenchmarkF4Collusion(b *testing.B)          { runExperiment(b, experiments.F4) }
func BenchmarkF5DigitizationScaling(b *testing.B) {
	runExperiment(b, experiments.F5)
}
func BenchmarkF6CaptchaGate(b *testing.B) { runExperiment(b, experiments.F6) }
func BenchmarkT3Dispatch(b *testing.B)    { runExperiment(b, experiments.T3) }
func BenchmarkT4Aggregation(b *testing.B) { runExperiment(b, experiments.T4) }
func BenchmarkA1Mechanisms(b *testing.B)  { runExperiment(b, experiments.A1) }
func BenchmarkA2Replay(b *testing.B)      { runExperiment(b, experiments.A2) }

func BenchmarkA3Assessment(b *testing.B) { runExperiment(b, experiments.A3) }

func BenchmarkA4MachinePartners(b *testing.B) { runExperiment(b, experiments.A4) }

func BenchmarkA5AdaptiveRedundancy(b *testing.B) { runExperiment(b, experiments.A5) }

func BenchmarkT5Retention(b *testing.B) { runExperiment(b, experiments.T5) }
