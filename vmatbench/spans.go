package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Start and End are offsets
// from the recorder's epoch; Parent is 0 for a request's root span.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until they are written out. A nil
// Recorder records nothing, which is how the replay runs with spans
// off.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose bounds were observed elsewhere (engine
// trace events).
func (r *Recorder) Add(name string, parent, req int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	r.mu.Unlock()
}

// Fork returns an empty recorder sharing r's epoch, for one goroutine
// to record into without contending for r's lock; Absorb merges it
// back.
func (r *Recorder) Fork() *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{epoch: r.epoch}
}

// Absorb appends the spans of forked recorders, renumbering their IDs
// (and parent links) past r's own.
func (r *Recorder) Absorb(forks ...*Recorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range forks {
		base := len(r.spans)
		for _, s := range f.Spans() {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			r.spans = append(r.spans, s)
		}
	}
}

// Take returns everything recorded so far and forgets it, keeping the
// epoch, so later spans stay on the same clock.
func (r *Recorder) Take() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// Spans returns a copy of everything recorded.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
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

// SelfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of it that its children cover. Overlapping
// children count once, and a child reaching outside its parent counts
// only inside it.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		covered += curEnd - curStart
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}
