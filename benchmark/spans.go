package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// recorder keeps the benchmark's own spans in memory: one around each call
// it makes into the simulator (a trial, a traced pass, a layer
// microbenchmark), each naming the span it ran inside. Spans inside the
// simulator are a later change (ROADMAP item 3); until then the per-layer
// split of a trial comes from the CPU profile.
type recorder struct {
	spans   []span
	current int // index of the innermost open span, -1 at top level
}

type span struct {
	name       string
	parent     int // index into spans, -1 at top level
	start, end time.Duration
}

// begin opens a span inside the one currently open and returns the
// function that ends it.
func (r *recorder) begin(name string) (end func()) {
	i, parent := len(r.spans), r.current
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(processStart)})
	r.current = i
	return func() {
		r.spans[i].end = time.Since(processStart)
		r.current = parent
	}
}

// write stores the spans as Chrome trace-event JSON (Perfetto loads it).
func (r *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"id": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1, Args: args,
			TS: float64(s.start) / float64(time.Microsecond), Dur: float64(s.end-s.start) / float64(time.Microsecond),
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
