package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into a layer. Spans
// of one trial share its trace id (the point index; inside the daemon,
// the trial's start order), spans of one service job share the job id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name, trace string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere: the phases a
// trial's obs.RunObserver reports as durations.
func (t *tracer) add(name, trace string, parent int, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(start), End: int64(end)})
	return id
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// selfTimes returns each span's duration minus the durations of its
// children. Children of one span never overlap: every parent's children
// are opened and closed in sequence by one goroutine.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	self := t.selfTimes()
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += self[i]
	}
	return out
}

// durByName sums whole durations per span name.
func (t *tracer) durByName() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += s.dur()
	}
	return out
}

// checkPartition verifies, under every span named root (a trial or a
// job), that each span's children lie inside it and do not overlap one
// another. Then no time is counted twice, and the self times under the
// root, its own self time being the reported remainder, add up to its
// wall time.
func (t *tracer) checkPartition(root string) error {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var check func(p span) error
	check = func(p span) error {
		cs := children[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		prev := p.Start
		for _, c := range cs {
			if c.Start < prev || c.End > p.End || c.End < c.Start {
				return fmt.Errorf("span %s [%d,%d] overlaps its siblings or leaves its parent %s [%d,%d] (trace %s)",
					c.Name, c.Start, c.End, p.Name, p.Start, p.End, p.Trace)
			}
			prev = c.End
			if err := check(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range t.spans {
		if s.Name == root {
			if err := check(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// write emits the spans as JSONL, ordered by start time.
func (t *tracer) write(w io.Writer) error {
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
