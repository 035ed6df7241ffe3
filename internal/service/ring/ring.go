// Package ring implements the consistent-hash ring cmd/fupermod-route
// spreads tenants over a fleet of partition servers with. Each replica
// (one server process) owns a fixed set of virtual nodes (points on a
// 64-bit hash circle); a tenant maps to the first live replica at or
// clockwise of its own hash. The construction gives the two properties
// the serving layer is built on:
//
//   - affinity: a tenant maps to exactly one replica, deterministically —
//     the same tenant name resolves to the same replica in every process
//     that agrees on the membership, so every router in front of one
//     fleet routes identically;
//   - minimal disruption: a single membership change (replica added,
//     removed, or marked dead) moves only the tenants whose walk touches
//     that replica — everyone else keeps their assignment, so caches stay
//     warm through failover and scale-out.
//
// Marking a replica dead keeps its virtual nodes on the circle but skips
// them during lookup ("re-walking the ring"): tenants on a dead replica
// fail over to their clockwise successor and return to their original
// replica the moment it is marked live again.
package ring

import (
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-replica virtual-node count used when New
// is given a non-positive value. 64 points per replica keeps the expected
// load imbalance within a few tens of percent at small replica counts
// while membership changes stay O(vnodes·log(points)).
const DefaultVirtualNodes = 64

// point is one virtual node: a position on the hash circle owned by a
// replica.
type point struct {
	hash    uint64
	replica string
	idx     int // vnode index, tie-break only
}

// Ring is a consistent-hash ring over named replicas. It is safe for
// concurrent use.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	live   map[string]bool
	points []point // sorted by (hash, replica, idx)
}

// New returns an empty ring with the given virtual-node count per replica
// (non-positive selects DefaultVirtualNodes).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, live: make(map[string]bool)}
}

// fnv1a is the 64-bit FNV-1a hash with an avalanche finalizer —
// deterministic across processes and Go versions, which is what lets
// separate routers agree on assignments. The finalizer matters: raw FNV
// barely diffuses trailing-byte differences into the high bits that order
// the circle, so names that differ only near the end (":8080" vs ":8081")
// would place their virtual nodes in systematically adjacent — not
// independent — positions, and one replica would win nearly every arc.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Add inserts a replica (live) with its virtual nodes. Adding an existing
// member is a no-op — in particular it does not resurrect a dead replica.
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[name]; ok {
		return
	}
	r.live[name] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: fnv1a(name + "#" + strconv.Itoa(i)), replica: name, idx: i})
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		if pa.replica != pb.replica {
			return pa.replica < pb.replica
		}
		return pa.idx < pb.idx
	})
}

// Remove drops a replica and its virtual nodes from the ring entirely.
// Removing a non-member is a no-op.
func (r *Ring) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[name]; !ok {
		return
	}
	delete(r.live, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.replica != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// SetLive marks a member live or dead, reporting whether name is a member.
// A dead member keeps its circle positions, so reviving it restores every
// original assignment exactly.
func (r *Ring) SetLive(name string, live bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[name]; !ok {
		return false
	}
	r.live[name] = live
	return true
}

// Alive reports whether name is a live member.
func (r *Ring) Alive(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live[name]
}

// Members returns every member (live or dead), sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.live))
	for name := range r.live {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LiveCount returns the number of live members.
func (r *Ring) LiveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, alive := range r.live {
		if alive {
			n++
		}
	}
	return n
}

// Lookup maps a tenant to its live replica: the first live virtual node at
// or clockwise of the tenant's hash. ok is false when no member is live.
func (r *Ring) Lookup(tenant string) (string, bool) {
	h := fnv1a(tenant)
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if r.live[p.replica] {
			return p.replica, true
		}
	}
	return "", false
}
