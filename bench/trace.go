package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package
// around the layer's public function. Spans of one operation share
// Root, the id of their outermost span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an outermost span
	Root   int    `json:"root"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// recorder keeps spans in memory; nothing is written until the run is
// over. A nil *recorder records nothing, so the untraced run pays one
// nil check per boundary.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (-1 for none) and returns its id.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	root := id
	if parent >= 0 {
		root = r.spans[parent].Root
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Root: root, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	d := now - r.spans[id].Start
	r.mu.Unlock()
	return float64(d) / 1e9
}

// layerTime is one row of the "where the time goes" table.
type layerTime struct {
	name  string
	calls int
	self  float64 // seconds: span durations minus their child spans
}

// selfTimes sums, per span name, each span's duration minus the time
// its children cover, ranked by that self time.
func (r *recorder) selfTimes() []layerTime {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range r.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		lt.calls++
		lt.self += float64(s.End-s.Start-child[i]) / 1e9
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// printSelfTimes renders the ranked table.
func printSelfTimes(w io.Writer, rows []layerTime) {
	total := 0.0
	for _, lt := range rows {
		total += lt.self
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "  where the traced time went (self time = span minus child spans):\n")
	for _, lt := range rows {
		fmt.Fprintf(w, "    %-28s %8d calls %10.4f s %6.1f %%\n", lt.name, lt.calls, lt.self, 100*lt.self/total)
	}
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
