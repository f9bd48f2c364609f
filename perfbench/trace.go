package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's own code around the layer's public function. Spans of one
// training step or one served request share req; parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"` // "<layer>.<call>"
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's call belongs to: its name up to the first
// dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so measured code has one path.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	adopt map[int64][2]int64 // span id → {parent, req}, applied by snapshot
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), adopt: make(map[int64][2]int64)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// newID reserves a span id; 0 when untraced.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// openSpan is a span whose call is still running.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span that begins now.
func (t *tracer) start(name, detail string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.newID(), Parent: parent, Req: req,
		Name: name, Detail: detail, Start: t.ns(time.Now())}}
}

// id is the open span's id, for its children; 0 when untraced.
func (o openSpan) id() int64 { return o.s.ID }

// end closes and records the span.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = o.t.ns(time.Now())
	o.t.add(o.s)
}

// record stores a span with explicit times in ns since the epoch (from a
// due time, or split at a probe).
func (t *tracer) record(id int64, name, detail string, parent, req, start, end int64) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Detail: detail, Start: start, End: end})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reparent attaches an already recorded (or still open) span to a parent
// and request known only to the caller — a node handler span learns its
// client request only through the response.
func (t *tracer) reparent(id, parent, req int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.adopt[id] = [2]int64{parent, req}
	t.mu.Unlock()
}

// snapshot returns the recorded spans, ordered by start time, with
// reparenting applied and every span carrying its root's request id.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if a, ok := t.adopt[out[i].ID]; ok {
			out[i].Parent, out[i].Req = a[0], a[1]
		}
	}
	t.mu.Unlock()
	byID := make(map[int64]int, len(out))
	for i, s := range out {
		byID[s.ID] = i
	}
	var reqOf func(i, depth int) int64
	reqOf = func(i, depth int) int64 {
		s := out[i]
		if s.Req != 0 || s.Parent == 0 || depth > len(out) {
			return s.Req
		}
		if p, ok := byID[s.Parent]; ok {
			return reqOf(p, depth+1)
		}
		return 0
	}
	for i := range out {
		out[i].Req = reqOf(i, 0)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each layer's exclusive time over spans: a span's
// duration minus the part of its interval covered by its children, summed
// per layer. The self times of a tree add up to its root's duration.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curLo, curHi int64 = 0, -1 << 62
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeSpans writes the run's spans and its environment record as one JSON
// document.
func writeSpans(path string, env envRecord, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Env   envRecord `json:"env"`
		Spans []span    `json:"spans"`
	}{env, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
