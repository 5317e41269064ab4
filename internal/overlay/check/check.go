// Package check validates structural invariants of overlays and
// dissemination trees. The experiments trust these invariants (distinct
// in-range positions, well-formed link sets, reachability among online
// peers, acyclic trees); the checker makes them executable so every
// system's tests — and debugging sessions — can assert them directly.
package check

import (
	"fmt"
	"math/rand"

	"selectps/internal/overlay"
	"selectps/internal/ring"
)

// Report collects invariant violations; empty means all checks passed.
type Report struct {
	Violations []string
}

// Ok reports whether no violations were recorded.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) addf(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// String renders the report, one violation per line.
func (r *Report) String() string {
	if r.Ok() {
		return "ok"
	}
	out := ""
	for _, v := range r.Violations {
		out += v + "\n"
	}
	return out
}

// Structure validates per-peer state: positions in [0,1) and pairwise
// distinct (greedy routing makes no progress between peers sharing a
// position), no self links, no duplicate links, link targets in range.
func Structure(o overlay.Overlay) *Report {
	r := &Report{}
	n := o.N()
	at := make(map[ring.ID]overlay.PeerID, n)
	for p := 0; p < n; p++ {
		pid := overlay.PeerID(p)
		pos := o.Position(pid)
		if !pos.Valid() {
			r.addf("peer %d: position %v outside [0,1)", p, pos)
		}
		if q, dup := at[pos]; dup {
			r.addf("peer %d: shares position %v with peer %d", p, pos, q)
		}
		at[pos] = pid
		seen := make(map[overlay.PeerID]bool)
		for _, q := range o.Links(pid) {
			switch {
			case q == pid:
				r.addf("peer %d: self link", p)
			case q < 0 || int(q) >= n:
				r.addf("peer %d: link target %d out of range", p, q)
			case seen[q]:
				r.addf("peer %d: duplicate link to %d", p, q)
			}
			seen[q] = true
		}
	}
	return r
}

// Reachability verifies every online peer can reach every other online
// peer along online links (BFS over the union of link directions — links
// are usable connections). A partitioned overlay cannot guarantee
// delivery, which breaks the paper's §V correctness argument for the ring.
func Reachability(o overlay.Overlay) *Report {
	r := &Report{}
	n := o.N()
	if n == 0 {
		return r
	}
	// Union adjacency both ways: a TCP connection is usable by both ends.
	adj := make([][]overlay.PeerID, n)
	for p := 0; p < n; p++ {
		pid := overlay.PeerID(p)
		if !o.Online(pid) {
			continue
		}
		for _, q := range o.Links(pid) {
			if o.Online(q) {
				adj[p] = append(adj[p], q)
				adj[q] = append(adj[q], pid)
			}
		}
	}
	start := overlay.PeerID(-1)
	online := 0
	for p := 0; p < n; p++ {
		if o.Online(overlay.PeerID(p)) {
			online++
			if start < 0 {
				start = overlay.PeerID(p)
			}
		}
	}
	if online == 0 {
		return r
	}
	visited := make([]bool, n)
	visited[start] = true
	queue := []overlay.PeerID{start}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !visited[v] {
				visited[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	if count != online {
		r.addf("overlay partitioned: %d of %d online peers reachable from %d",
			count, online, start)
	}
	return r
}

// Routes samples random online peer pairs and verifies the system's
// routing succeeds, terminates at the destination and uses only online
// peers and existing links.
func Routes(o overlay.Overlay, samples int, rng *rand.Rand) *Report {
	r := &Report{}
	n := o.N()
	if n < 2 {
		return r
	}
	links := func(p overlay.PeerID) map[overlay.PeerID]bool {
		m := make(map[overlay.PeerID]bool, len(o.Links(p)))
		for _, q := range o.Links(p) {
			m[q] = true
		}
		return m
	}
	for i := 0; i < samples; i++ {
		src := overlay.PeerID(rng.Intn(n))
		dst := overlay.PeerID(rng.Intn(n))
		if !o.Online(src) || !o.Online(dst) {
			continue
		}
		path, ok := overlay.RouteOn(o, src, dst)
		if !ok {
			r.addf("route %d->%d failed at %v", src, dst, path)
			continue
		}
		if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
			r.addf("route %d->%d has bad endpoints %v", src, dst, path)
			continue
		}
		for j := 1; j < len(path); j++ {
			if !o.Online(path[j]) {
				r.addf("route %d->%d passes offline peer %d", src, dst, path[j])
			}
			// Hops must follow usable connections in either direction.
			if !links(path[j-1])[path[j]] && !links(path[j])[path[j-1]] {
				r.addf("route %d->%d uses non-link %d->%d", src, dst, path[j-1], path[j])
			}
		}
	}
	return r
}

// Tree verifies a dissemination tree: parent/children consistency, no
// cycles, every node reaches the root.
func Tree(t *overlay.Tree) *Report {
	r := &Report{}
	for _, p := range t.Nodes() {
		if p == t.Root {
			continue
		}
		if d := t.Depth(p); d < 0 {
			r.addf("tree node %d does not reach the root", p)
		}
		par, ok := t.Parent(p)
		if !ok {
			r.addf("tree node %d has no parent", p)
			continue
		}
		found := false
		for _, c := range t.Children(par) {
			if c == p {
				found = true
				break
			}
		}
		if !found {
			r.addf("tree node %d missing from parent %d's children", p, par)
		}
	}
	return r
}

// All runs Structure, Reachability and Routes and merges the reports.
func All(o overlay.Overlay, routeSamples int, rng *rand.Rand) *Report {
	r := Structure(o)
	r.Violations = append(r.Violations, Reachability(o).Violations...)
	r.Violations = append(r.Violations, Routes(o, routeSamples, rng).Violations...)
	return r
}
