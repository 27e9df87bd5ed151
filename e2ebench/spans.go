package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanRec is one timed interval of a traced run, as written out.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the run began
	EndMS   float64 `json:"end_ms"`
}

// spans records the benchmark's own spans around its calls into each
// layer. A nil *spans records nothing, which is what untraced runs use.
type spans struct {
	t0    time.Time
	recs  []spanRec
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) ms(t time.Time) float64 { return t.Sub(s.t0).Seconds() * 1e3 }

// start opens a span under the innermost open one and returns its id.
func (s *spans) start(name string) int {
	if s == nil {
		return 0
	}
	parent := 0
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.recs) + 1
	s.recs = append(s.recs, spanRec{ID: id, Parent: parent, Name: name, StartMS: s.ms(time.Now())})
	s.stack = append(s.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.recs[id-1].EndMS = s.ms(time.Now())
	s.stack = s.stack[:len(s.stack)-1]
}

// record adds an already-finished interval under parent.
func (s *spans) record(name string, parent int, start, end time.Time) {
	if s == nil {
		return
	}
	s.recs = append(s.recs, spanRec{
		ID: len(s.recs) + 1, Parent: parent, Name: name, StartMS: s.ms(start), EndMS: s.ms(end),
	})
}

// write saves every span as a JSON array.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	b, err := json.MarshalIndent(s.recs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
