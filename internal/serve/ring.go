package serve

import (
	"fmt"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring of shard-node addresses. Each node owns
// defaultRingReplicas virtual points; a key is served by the first point
// clockwise from its hash, so adding or removing one node remaps only the
// keys that node owned (~1/n of the space) and every other node's
// plan/Ŵ caches stay warm — the property the shard router exists for.
//
// Nodes have two live states: active (on the ring) and draining (off the
// ring for new picks, still tracked so in-flight work can be awaited).
// A Ring is safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint // sorted by hash
	nodes    map[string]*NodeState
}

type ringPoint struct {
	hash uint64
	node string
}

// NodeState is one node's membership record.
type NodeState struct {
	Addr     string
	Draining bool
}

// defaultRingReplicas is the virtual-point count per node: 64 keeps the
// per-node share of the key space within a few percent of uniform for
// small rings while add/drain stays O(replicas·log points).
const defaultRingReplicas = 64

// NewRing returns an empty ring; replicas ≤ 0 selects the default.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultRingReplicas
	}
	return &Ring{replicas: replicas, nodes: make(map[string]*NodeState)}
}

// hash64 is FNV-1a over s, finished with the murmur3 64-bit finalizer.
// Bare FNV-1a barely moves its high bits when only the last bytes differ,
// so the virtual points "addr#0" … "addr#63" of one node landed in a few
// tight clumps and two nodes could split the key space very unevenly; the
// finalizer spreads every input bit over the whole word.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a node (or re-activates a draining one). Adding an already
// active node is a no-op.
func (r *Ring) Add(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[addr]; ok {
		if !n.Draining {
			return
		}
		n.Draining = false
	} else {
		r.nodes[addr] = &NodeState{Addr: addr}
	}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", addr, i)), addr})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Drain takes the node off the ring for new picks but keeps its record;
// the router awaits its in-flight forwards separately. Returns false for
// an unknown node.
func (r *Ring) Drain(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[addr]
	if !ok {
		return false
	}
	if !n.Draining {
		n.Draining = true
		r.removePointsLocked(addr)
	}
	return true
}

// Remove forgets the node entirely.
func (r *Ring) Remove(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[addr]
	if !ok {
		return false
	}
	if !n.Draining {
		r.removePointsLocked(addr)
	}
	delete(r.nodes, addr)
	return true
}

func (r *Ring) removePointsLocked(addr string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != addr {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Pick returns the node owning key's hash, or false when no active node
// remains.
func (r *Ring) Pick(key uint64) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0 // wrap: the first point clockwise past the top of the space
	}
	return r.points[i].node, true
}

// Nodes returns a stable-ordered snapshot of the membership.
func (r *Ring) Nodes() []NodeState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeState, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Active returns the number of nodes currently taking new picks.
func (r *Ring) Active() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, s := range r.nodes {
		if !s.Draining {
			n++
		}
	}
	return n
}

// RouteHash hashes the request fields that feed the plan-cache key, so
// every request for one geometry (same params, dtype, tuning knobs, algo)
// lands on the same shard and finds its plan and Ŵ caches warm. The
// router hashes the wire header — it never resolves server-side algo
// defaults, which is fine: stickiness needs a stable mapping, not the
// node's final key.
func RouteHash(hdr RequestHeader) uint64 {
	p := hdr.Params
	return hash64(fmt.Sprintf("%d|%d|%d|%d|%d|%d|%d|%d|%d|%s|%d|%d|%s",
		p.N, p.IH, p.IW, p.FH, p.FW, p.IC, p.OC, p.PH, p.PW,
		hdr.DType, hdr.NSM, hdr.Segments, hdr.Algo))
}
