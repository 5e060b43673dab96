package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed request as the generator saw it.
type sample struct {
	at    time.Duration // completion time since the phase began
	lat   time.Duration // closed loop: send → reply; open loop: due → reply
	kind  opKind
	items int32 // successful items this request carried (0 when it failed)
	ok    bool  // met the protocol: right status, right body
}

// quantile returns the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// window is the estimator window. One noisy-neighbour burst lands in one
// window and moves one of the values the median is taken over.
const window = time.Second

// minWindowSamples is how many samples a window needs before its own p99
// means anything (ten samples beyond the percentile).
const minWindowSamples = 1000

// fullWindows buckets samples into whole windows of the phase; the ragged
// tail window is dropped so every bucket covers the same time.
func fullWindows(ss []sample, phase time.Duration) [][]sample {
	n := int(phase / window)
	if n < 1 {
		return nil
	}
	out := make([][]sample, n)
	for _, s := range ss {
		if w := int(s.at / window); w >= 0 && w < n {
			out[w] = append(out[w], s)
		}
	}
	return out
}

// latencyMs extracts the latencies of ss in milliseconds. A request that
// failed misses any latency limit, so it is charged +Inf.
func latencyMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.ok {
			out[i] = float64(s.lat) / float64(time.Millisecond)
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// windowedP99 is the median over whole windows of each window's p99. When
// the windows are too thin for a p99 of their own (batch workloads send a
// hundred requests a second) it falls back to the p99 of the whole phase.
func windowedP99(ss []sample, phase time.Duration) float64 {
	ws := fullWindows(ss, phase)
	var counts, p99s []float64
	for _, w := range ws {
		counts = append(counts, float64(len(w)))
		if len(w) > 0 {
			p99s = append(p99s, quantile(latencyMs(w), 0.99))
		}
	}
	if len(p99s) == 0 || median(counts) < minWindowSamples {
		return quantile(latencyMs(ss), 0.99)
	}
	return median(p99s)
}

// windowStat is one whole window of a closed-loop phase. The windows are
// kept in result.json so the noise a run saw can be read off afterwards.
type windowStat struct {
	ItemsPerS  float64 `json:"items_per_s"`
	P50Ms      float64 `json:"p50_ms"`
	Requests   int     `json:"requests"`
	StealRatio float64 `json:"steal_ratio"` // share of the machine's CPU time the hypervisor gave to other guests
}

// hostTick is the machine's cumulative CPU time at a window boundary, in
// jiffies summed over CPUs.
type hostTick struct{ total, steal float64 }

// windowStats cuts a phase into whole windows. ticks[i] was read at the
// start of window i; missing ticks leave the steal ratio at zero.
func windowStats(ss []sample, phase time.Duration, ticks []hostTick) []windowStat {
	ws := fullWindows(ss, phase)
	out := make([]windowStat, len(ws))
	for i, w := range ws {
		st := &out[i]
		st.Requests, st.P50Ms = len(w), finite(median(latencyMs(w)))
		for _, s := range w {
			st.ItemsPerS += float64(s.items) / window.Seconds()
		}
		if i+1 < len(ticks) {
			if dt := ticks[i+1].total - ticks[i].total; dt > 0 {
				st.StealRatio = (ticks[i+1].steal - ticks[i].steal) / dt
			}
		}
	}
	return out
}

// medianItemsPerSec is the median over whole windows of the successful
// items completed in each.
func medianItemsPerSec(ws []windowStat) float64 {
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = w.ItemsPerS
	}
	return median(rates)
}

// meanSteal is the steal ratio over all of a phase's windows.
func meanSteal(ws []windowStat) float64 {
	if len(ws) == 0 {
		return 0
	}
	var sum float64
	for _, w := range ws {
		sum += w.StealRatio
	}
	return sum / float64(len(ws))
}

// mixP50 is the request latency of a phase as a client sees it across the
// mix: each route's median, weighted by the route's share of requests. The
// median of all requests pooled is no steadier than the mix is unimodal —
// in batch_pipeline it sits on the edge between 1 ms leases and 18 ms
// submits and jumps by tens of percent between identical runs.
func mixP50(ss []sample) float64 {
	var byKind [numOps][]float64
	for _, s := range ss {
		l := math.Inf(1)
		if s.ok {
			l = float64(s.lat) / float64(time.Millisecond)
		}
		byKind[s.kind] = append(byKind[s.kind], l)
	}
	var sum float64
	for _, ls := range byKind {
		if len(ls) > 0 {
			sum += median(ls) * float64(len(ls))
		}
	}
	return sum / float64(len(ss))
}

// unmeasurable stands in for a latency no finite number describes (a
// percentile that lands on a failed request), which JSON cannot carry.
const unmeasurable = 1e12

func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return unmeasurable
	}
	return v
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durQuantile is quantile over durations, in microseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return quantile(xs, q)
}
