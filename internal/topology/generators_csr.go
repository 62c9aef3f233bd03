package topology

import (
	"fmt"
	"math"
	"sort"

	"m2hew/internal/rng"
)

// visitGeometricPairs enumerates every pair of nodes within radius in
// ascending (i, j) order with i < j — exactly the order of the all-pairs
// scan — calling visit once per pair. It is the shared core of
// geometricEdges (which materializes an edge list), GeometricCSR (which
// streams the pairs into a CSR adjacency without an edge list), and
// GeometricStreamStats (which keeps only O(n) counters). The scan runs over
// a spatial grid-bucket index: cell side ≥ radius so all partners of a node
// lie in its 3×3 cell neighborhood, cols capped at ⌈√n⌉ to bound the cell
// count by O(n) when the radius is tiny.
func visitGeometricPairs(nodes []Node, radius float64, visit func(i, j int32)) {
	n := len(nodes)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	if radius > 0 {
		if byRadius := int(1 / radius); byRadius < cols {
			cols = byRadius
		}
	}
	if cols < 1 {
		cols = 1 // radius ≥ 1: one cell, the scan degenerates to all pairs
	}
	cellOf := func(coord float64) int {
		c := int(coord * float64(cols))
		if c < 0 {
			c = 0
		}
		if c >= cols {
			c = cols - 1
		}
		return c
	}
	buckets := make([][]int32, cols*cols)
	for i, nd := range nodes {
		c := cellOf(nd.Y)*cols + cellOf(nd.X)
		buckets[c] = append(buckets[c], int32(i))
	}
	var cand []int32
	for i := 0; i < n; i++ {
		cx, cy := cellOf(nodes[i].X), cellOf(nodes[i].Y)
		cand = cand[:0]
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 || y >= cols {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				x := cx + dx
				if x < 0 || x >= cols {
					continue
				}
				for _, j := range buckets[y*cols+x] {
					if int(j) > i {
						cand = append(cand, j)
					}
				}
			}
		}
		// Bucket visit order is spatial; restore ascending-j emission order.
		sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
		for _, j := range cand {
			dx, dy := nodes[i].X-nodes[j].X, nodes[i].Y-nodes[j].Y
			if math.Hypot(dx, dy) <= radius {
				visit(int32(i), j)
			}
		}
	}
}

// GeometricCSR builds the same random geometric graph as Geometric — node
// placement consumes the identical rng draw sequence, so a seeded network
// is indistinguishable from Geometric's — but never materializes the
// [][2]NodeID edge list or per-row append-grown adjacency slices. The pair
// scan streams twice (degree count, then fill) into a single flat NodeID
// arena whose rows are handed out as subslices; rows arrive already sorted
// (row u receives each partner v<u while the scan's outer index is v, in
// ascending v, then each v>u while the outer index is u, in ascending v),
// so no dedup map or per-row sort is needed. Peak overhead beyond the
// finished adjacency is O(n), which is what lets 100k–1M-node topologies
// fit in memory.
func GeometricCSR(n int, radius float64, r *rng.Source) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: geometric with %d nodes: %w", n, ErrNoNodes)
	}
	if radius < 0 {
		return nil, fmt.Errorf("topology: geometric radius %v is negative", radius)
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i), X: r.Float64(), Y: r.Float64()}
	}

	deg := make([]int32, n+1)
	visitGeometricPairs(nodes, radius, func(i, j int32) {
		deg[i]++
		deg[j]++
	})
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + deg[i]
	}
	arena := make([]NodeID, off[n])
	cur := deg[:n] // reuse as fill cursors
	copy(cur, off[:n])
	visitGeometricPairs(nodes, radius, func(i, j int32) {
		arena[cur[i]] = NodeID(j)
		cur[i]++
		arena[cur[j]] = NodeID(i)
		cur[j]++
	})
	adj := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		adj[i] = arena[off[i]:off[i+1]:off[i+1]]
	}
	return &Network{nodes: nodes, adj: adj}, nil
}

// GeometricConnectedCSR retries GeometricCSR until the graph is connected,
// mirroring GeometricConnected (and drawing the same rng sequence, so the
// accepted instance matches GeometricConnected's at the same seed).
func GeometricConnectedCSR(n int, radius float64, r *rng.Source, attempts int) (*Network, error) {
	if attempts <= 0 {
		attempts = 50
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		nw, err := GeometricCSR(n, radius, r)
		if err != nil {
			return nil, err
		}
		if nw.Connected() {
			return nw, nil
		}
		lastErr = fmt.Errorf("topology: no connected geometric graph with n=%d radius=%v in %d attempts", n, radius, attempts)
	}
	return nil, lastErr
}

// StreamStats summarizes a geometric instance from the streaming pair scan
// alone: degree distribution and connectivity via a union-find over visited
// pairs, with O(n) memory and no edge list, adjacency, or Network. This is
// what lets 100k+ scenarios be inspected cheaply (cmd/ndtopo -stream).
type StreamStats struct {
	Nodes            int     `json:"nodes"`
	Edges            int     `json:"edges"`
	MinDegree        int     `json:"min_degree"`
	MaxDegree        int     `json:"max_degree"`
	MeanDegree       float64 `json:"mean_degree"`
	Isolated         int     `json:"isolated"`
	Components       int     `json:"components"`
	LargestComponent int     `json:"largest_component"`
}

// Connected reports whether the instance forms a single component.
func (s StreamStats) Connected() bool { return s.Components == 1 }

// GeometricStreamStats draws a geometric instance with the same rng
// sequence as Geometric/GeometricCSR and returns its StreamStats without
// building the graph.
func GeometricStreamStats(n int, radius float64, r *rng.Source) (StreamStats, error) {
	if n <= 0 {
		return StreamStats{}, fmt.Errorf("topology: geometric with %d nodes: %w", n, ErrNoNodes)
	}
	if radius < 0 {
		return StreamStats{}, fmt.Errorf("topology: geometric radius %v is negative", radius)
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i), X: r.Float64(), Y: r.Float64()}
	}

	deg := make([]int32, n)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	edges := 0
	visitGeometricPairs(nodes, radius, func(i, j int32) {
		edges++
		deg[i]++
		deg[j]++
		ri, rj := find(i), find(j)
		if ri != rj {
			parent[ri] = rj
		}
	})

	st := StreamStats{Nodes: n, Edges: edges, MinDegree: int(deg[0]), MaxDegree: int(deg[0])}
	size := make(map[int32]int, 16)
	for i := 0; i < n; i++ {
		d := int(deg[i])
		if d < st.MinDegree {
			st.MinDegree = d
		}
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		if d == 0 {
			st.Isolated++
		}
		size[find(int32(i))]++
	}
	st.MeanDegree = 2 * float64(edges) / float64(n)
	st.Components = len(size)
	for _, sz := range size {
		if sz > st.LargestComponent {
			st.LargestComponent = sz
		}
	}
	return st, nil
}
