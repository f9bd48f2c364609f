package main

import (
	"testing"
	"time"
)

func TestSelfTimeFromNestedSpans(t *testing.T) {
	// A request (loadgen) whose router call holds a node handler that is
	// split at compute start; a second, overlapping child of the root
	// covers part of the same interval.
	spans := []span{
		{ID: 1, Req: 1, Name: "loadgen.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "router.request", Start: 10, End: 90},
		{ID: 3, Parent: 2, Req: 1, Name: "serve.handler", Start: 20, End: 80},
		{ID: 4, Parent: 3, Req: 1, Name: "serve.pre_compute", Start: 20, End: 50},
		{ID: 5, Parent: 3, Req: 1, Name: "serve.compute_encode", Start: 50, End: 80},
		{ID: 6, Parent: 1, Req: 1, Name: "bench.check", Start: 85, End: 95},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"loadgen": 100 - 85, // [10,95] is covered by the two children
		"router":  80 - 60,
		"serve":   60, // the handler itself is fully covered by its halves
		"bench":   10,
	}
	var total time.Duration
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], d)
		}
	}
	for _, d := range self {
		total += d
	}
	if total != 100+5 { // the overlapping check adds its 5 ns outside router
		t.Errorf("self times add to %v, want 105", total)
	}
}

func TestSnapshotAppliesReparentAndRequest(t *testing.T) {
	tr := newTracer()
	root, call, handler, half := tr.newID(), tr.newID(), tr.newID(), tr.newID()
	tr.record(root, "loadgen.request", "", 0, 7, 0, 10)
	tr.record(call, "router.request", "", root, 7, 1, 9)
	tr.record(handler, "serve.handler", "", 0, 0, 2, 8) // recorded by the node
	tr.record(half, "serve.pre_compute", "", handler, 0, 2, 5)
	tr.reparent(handler, call, 7)
	for _, s := range tr.snapshot() {
		if s.Req != 7 {
			t.Errorf("span %s has request %d, want 7", s.Name, s.Req)
		}
		if s.ID == handler && s.Parent != call {
			t.Errorf("handler parent = %d, want %d", s.Parent, call)
		}
	}
}

func TestNilTracerIsUntraced(t *testing.T) {
	var tr *tracer
	s := tr.start("core.execute", "", 0, 1)
	s.end()
	tr.record(tr.newID(), "x.y", "", 0, 1, 0, 1)
	if tr.snapshot() != nil || s.id() != 0 {
		t.Fatal("a nil tracer recorded something")
	}
}
