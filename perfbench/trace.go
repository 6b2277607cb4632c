package main

// Client-side spans. Each span is recorded by the harness around a call
// into one layer (an HTTP request, or an in-process decode, check or
// encode), kept in memory, and written out when the run ends. Spans
// inside the program are not recorded here: the harness only sees
// layers from outside.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer collects spans; a nil tracer records nothing, so untraced
// windows pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	id, parent int64
	name       string
	start      time.Time
}

func (t *tracer) begin(name string, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return spanRef{id: id, parent: parent, name: name, start: time.Now()}
}

func (t *tracer) end(r spanRef) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: r.id, Parent: r.parent, Name: r.name,
		Start: int64(r.start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the mean self time: each span's
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := map[string]time.Duration{}
	count := map[string]int{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		total[s.Name] += time.Duration(self)
		count[s.Name]++
	}
	out := map[string]time.Duration{}
	for name, d := range total {
		out[name] = d / time.Duration(count[name])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeSpans stores a traced run's spans as JSON under dir.
func writeSpans(dir string, e *env, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed)), raw, 0o644)
}
