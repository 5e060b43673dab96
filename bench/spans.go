package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call, recorded by the harness around a call into the
// program. I is the request's index in the workload's stream and is the
// identifier every span of one request shares; Parent names the span of
// the same request that caused this one ("" for the root). Start and End
// are nanoseconds since the rung that recorded the span began: each rung
// replays the stream on its own, so only durations compare across rungs.
type span struct {
	I      int    `json:"i"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent string `json:"parent"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// rung restarts the clock; spans added afterwards are relative to now.
func (l *spanLog) rung() { l.epoch = time.Now() }

func (l *spanLog) add(i int, name, parent string, start time.Time, d time.Duration) {
	s := start.Sub(l.epoch).Nanoseconds()
	l.spans = append(l.spans, span{I: i, Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent})
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the self time of every span of that
// name: its duration minus the durations of the spans of the same request
// that name it as parent. A request index missing from a child rung (the
// rungs are time-bounded and may stop at different indices) simply has
// nothing subtracted, so callers compare indices all rungs reached.
func selfTimes(spans []span) map[string][]time.Duration {
	type key struct {
		i    int
		name string
	}
	children := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.I, s.Parent}] += s.End - s.Start
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		self := s.End - s.Start - children[key{s.I, s.Name}]
		out[s.Name] = append(out[s.Name], time.Duration(self))
	}
	return out
}
