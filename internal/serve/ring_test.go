package serve

// Unit tests for the consistent-hash ring: deterministic picks, bounded
// remapping on membership change, and drain/remove semantics.

import (
	"fmt"
	"testing"
)

func ringWith(nodes ...string) *Ring {
	r := NewRing(0)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

func keys(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = hash64(fmt.Sprintf("key-%d", i))
	}
	return out
}

func TestRingDeterministicPicks(t *testing.T) {
	a := ringWith("n1", "n2", "n3")
	b := ringWith("n3", "n1", "n2") // insertion order must not matter
	for _, k := range keys(500) {
		na, ok := a.Pick(k)
		if !ok {
			t.Fatal("pick failed on a populated ring")
		}
		nb, _ := b.Pick(k)
		if na != nb {
			t.Fatalf("pick for %d depends on insertion order: %q vs %q", k, na, nb)
		}
		if again, _ := a.Pick(k); again != na {
			t.Fatalf("pick for %d is not stable: %q then %q", k, na, again)
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	r := ringWith("n1", "n2", "n3")
	counts := map[string]int{}
	ks := keys(3000)
	for _, k := range ks {
		n, _ := r.Pick(k)
		counts[n]++
	}
	for node, c := range counts {
		frac := float64(c) / float64(len(ks))
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("node %s owns %.0f%% of keys; expected a rough third", node, frac*100)
		}
	}
	if len(counts) != 3 {
		t.Errorf("only %d of 3 nodes received keys", len(counts))
	}
}

// Two nodes named like real shards — URLs that differ only in their last
// few characters — must each own a fair share of the key space. With bare
// FNV-1a their virtual points clumped, and pairs of ephemeral test ports
// regularly split the space far from evenly.
func TestRingSpreadsURLNamedNodes(t *testing.T) {
	ks := keys(2000)
	for port := 40000; port < 40040; port++ {
		a := fmt.Sprintf("http://127.0.0.1:%d", port)
		b := fmt.Sprintf("http://127.0.0.1:%d", port+1)
		r := ringWith(a, b)
		owned := 0
		for _, k := range ks {
			if n, _ := r.Pick(k); n == a {
				owned++
			}
		}
		if frac := float64(owned) / float64(len(ks)); frac < 0.3 || frac > 0.7 {
			t.Errorf("%s owns %.0f%% of keys against %s; want 30–70%%", a, frac*100, b)
		}
	}
}

// TestRingRemovalRemapsOnlyOwnedKeys is the consistent-hashing property
// itself: dropping one node must not move any key that it did not own.
func TestRingRemovalRemapsOnlyOwnedKeys(t *testing.T) {
	r := ringWith("n1", "n2", "n3")
	ks := keys(2000)
	before := make([]string, len(ks))
	for i, k := range ks {
		before[i], _ = r.Pick(k)
	}
	if !r.Remove("n2") {
		t.Fatal("Remove(n2) reported unknown node")
	}
	moved := 0
	for i, k := range ks {
		after, ok := r.Pick(k)
		if !ok {
			t.Fatal("pick failed after removal")
		}
		if after == "n2" {
			t.Fatalf("key %d still routed to removed node", k)
		}
		if before[i] != "n2" && after != before[i] {
			t.Errorf("key %d moved %q -> %q though its owner stayed", k, before[i], after)
		}
		if before[i] == "n2" {
			moved++
		}
	}
	if moved == 0 {
		t.Error("removed node owned zero keys; spread test should have caught this")
	}
}

func TestRingDrainStopsPicksButKeepsRecord(t *testing.T) {
	r := ringWith("n1", "n2")
	if !r.Drain("n2") {
		t.Fatal("Drain(n2) reported unknown node")
	}
	for _, k := range keys(300) {
		n, ok := r.Pick(k)
		if !ok || n != "n1" {
			t.Fatalf("pick after drain: got %q ok=%v, want n1", n, ok)
		}
	}
	if r.Active() != 1 {
		t.Errorf("Active() = %d after drain, want 1", r.Active())
	}
	nodes := r.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("Nodes() lost the draining record: %v", nodes)
	}
	var drained *NodeState
	for i := range nodes {
		if nodes[i].Addr == "n2" {
			drained = &nodes[i]
		}
	}
	if drained == nil || !drained.Draining {
		t.Errorf("n2 not marked draining in %v", nodes)
	}

	// Re-adding a draining node restores its picks.
	r.Add("n2")
	seen := false
	for _, k := range keys(500) {
		if n, _ := r.Pick(k); n == "n2" {
			seen = true
			break
		}
	}
	if !seen {
		t.Error("re-added node receives no picks")
	}
	if r.Active() != 2 {
		t.Errorf("Active() = %d after re-add, want 2", r.Active())
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Pick(42); ok {
		t.Error("empty ring produced a pick")
	}
	r.Add("n1")
	r.Remove("n1")
	if _, ok := r.Pick(42); ok {
		t.Error("fully removed ring produced a pick")
	}
	if r.Drain("ghost") {
		t.Error("Drain of unknown node reported success")
	}
	if r.Remove("ghost") {
		t.Error("Remove of unknown node reported success")
	}
}

// TestRouteHashStickiness pins that the route hash is a pure function of
// the plan-key fields: identical headers agree, any key-field change
// disagrees (so distinct geometries are free to land on distinct shards).
func TestRouteHashStickiness(t *testing.T) {
	base := RequestHeader{Op: "backward_filter"}
	base.Params.N, base.Params.IH, base.Params.IW = 1, 16, 16
	base.Params.FH, base.Params.FW = 3, 3
	base.Params.IC, base.Params.OC = 4, 4
	base.Params.PH, base.Params.PW = 1, 1

	if RouteHash(base) != RouteHash(base) {
		t.Fatal("route hash is not deterministic")
	}

	variants := []func(*RequestHeader){
		func(h *RequestHeader) { h.Params.IH = 32 },
		func(h *RequestHeader) { h.Params.OC = 8 },
		func(h *RequestHeader) { h.DType = F16 },
		func(h *RequestHeader) { h.NSM = 4 },
		func(h *RequestHeader) { h.Segments = 2 },
		func(h *RequestHeader) { h.Algo = "gemm" },
	}
	for i, mutate := range variants {
		h := base
		mutate(&h)
		if RouteHash(h) == RouteHash(base) {
			t.Errorf("variant %d: key-field change did not change the route hash", i)
		}
	}
}
