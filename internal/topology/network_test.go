package topology

import (
	"testing"

	"m2hew/internal/channel"
)

func mustLine(t *testing.T, n int) *Network {
	t.Helper()
	nw, err := Line(n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewNetworkRejectsEmpty(t *testing.T) {
	if _, err := newNetwork(nil, nil); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestNewNetworkRejectsSelfLoop(t *testing.T) {
	nodes := abstractNodes(2)
	if _, err := newNetwork(nodes, [][2]NodeID{{0, 0}}); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestNewNetworkRejectsOutOfRangeEdge(t *testing.T) {
	nodes := abstractNodes(2)
	if _, err := newNetwork(nodes, [][2]NodeID{{0, 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestNewNetworkRejectsBadIDs(t *testing.T) {
	nodes := []Node{{ID: 1}, {ID: 0}}
	if _, err := newNetwork(nodes, nil); err == nil {
		t.Fatal("non-dense IDs accepted")
	}
}

func TestDuplicateEdgesDeduplicated(t *testing.T) {
	nodes := abstractNodes(2)
	nw, err := newNetwork(nodes, [][2]NodeID{{0, 1}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if nw.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", nw.EdgeCount())
	}
	if len(nw.Neighbors(0)) != 1 {
		t.Fatalf("node 0 has %d neighbors, want 1", len(nw.Neighbors(0)))
	}
}

func TestAdjacencySymmetricAndSorted(t *testing.T) {
	nw := mustLine(t, 5)
	for u := 0; u < nw.N(); u++ {
		prev := NodeID(-1)
		for _, v := range nw.Neighbors(NodeID(u)) {
			if v <= prev {
				t.Fatalf("neighbors of %d not sorted: %v", u, nw.Neighbors(NodeID(u)))
			}
			prev = v
			if !nw.AreNeighbors(v, NodeID(u)) {
				t.Fatalf("asymmetric adjacency %d-%d", u, v)
			}
		}
	}
}

func TestAreNeighbors(t *testing.T) {
	nw := mustLine(t, 4)
	if !nw.AreNeighbors(1, 2) {
		t.Fatal("1-2 adjacency missing on a line")
	}
	if nw.AreNeighbors(0, 3) {
		t.Fatal("0-3 falsely adjacent on a line")
	}
}

func TestSpanIsIntersection(t *testing.T) {
	nw := mustLine(t, 2)
	nw.SetAvail(0, channel.NewSet(1, 2, 3))
	nw.SetAvail(1, channel.NewSet(2, 3, 4))
	want := channel.NewSet(2, 3)
	if got := nw.Span(0, 1); !got.Equal(want) {
		t.Fatalf("span = %v, want %v", got, want)
	}
	// Non-adjacent pairs have empty span.
	nw3 := mustLine(t, 3)
	nw3.SetAvail(0, channel.NewSet(1))
	nw3.SetAvail(2, channel.NewSet(1))
	if !nw3.Span(0, 2).IsEmpty() {
		t.Fatal("non-adjacent pair has non-empty span")
	}
}

func TestRestrictSpan(t *testing.T) {
	nw := mustLine(t, 2)
	nw.SetAvail(0, channel.NewSet(1, 2, 3))
	nw.SetAvail(1, channel.NewSet(1, 2, 3))
	if err := nw.RestrictSpan(0, 1, channel.NewSet(2)); err != nil {
		t.Fatal(err)
	}
	if got := nw.Span(0, 1); !got.Equal(channel.NewSet(2)) {
		t.Fatalf("restricted span = %v, want {2}", got)
	}
	// Symmetric lookup.
	if got := nw.Span(1, 0); !got.Equal(channel.NewSet(2)) {
		t.Fatalf("reverse restricted span = %v, want {2}", got)
	}
	nw3 := mustLine(t, 3)
	if err := nw3.RestrictSpan(0, 2, channel.NewSet(1)); err == nil {
		t.Fatal("RestrictSpan on non-edge returned nil error")
	}
}

func TestDirectedLinks(t *testing.T) {
	nw := mustLine(t, 3)
	links := nw.DirectedLinks()
	if len(links) != 4 { // 2 edges × 2 directions
		t.Fatalf("got %d directed links, want 4", len(links))
	}
	seen := make(map[Link]bool)
	for _, l := range links {
		seen[l] = true
	}
	for _, want := range []Link{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !seen[want] {
			t.Fatalf("missing link %v", want)
		}
	}
}

func TestDiscoverableLinksExcludesEmptySpan(t *testing.T) {
	nw := mustLine(t, 3)
	nw.SetAvail(0, channel.NewSet(1))
	nw.SetAvail(1, channel.NewSet(1, 2))
	nw.SetAvail(2, channel.NewSet(3)) // no overlap with node 1
	links := nw.DiscoverableLinks()
	if len(links) != 2 {
		t.Fatalf("got %d discoverable links, want 2: %v", len(links), links)
	}
}

func TestDegreeOn(t *testing.T) {
	nw, err := Star(4)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetAvail(0, channel.NewSet(1, 2))
	nw.SetAvail(1, channel.NewSet(1))
	nw.SetAvail(2, channel.NewSet(1, 2))
	nw.SetAvail(3, channel.NewSet(2))
	if got := nw.DegreeOn(0, 1); got != 2 {
		t.Fatalf("Δ(hub, ch1) = %d, want 2", got)
	}
	if got := nw.DegreeOn(0, 2); got != 2 {
		t.Fatalf("Δ(hub, ch2) = %d, want 2", got)
	}
	if got := nw.DegreeOn(1, 1); got != 1 {
		t.Fatalf("Δ(leaf1, ch1) = %d, want 1", got)
	}
	if got := nw.DegreeOn(1, 2); got != 0 {
		t.Fatalf("Δ(leaf1, ch2) = %d, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	nw := mustLine(t, 2)
	if err := nw.Validate(); err == nil {
		t.Fatal("validation passed with empty available sets")
	}
	nw.SetAvail(0, channel.NewSet(1))
	nw.SetAvail(1, channel.NewSet(2))
	if err := nw.Validate(); err == nil {
		t.Fatal("validation passed with empty span")
	}
	nw.SetAvail(1, channel.NewSet(1, 2))
	if err := nw.Validate(); err != nil {
		t.Fatalf("valid network failed validation: %v", err)
	}
}

func TestUniverseIsUnion(t *testing.T) {
	nw := mustLine(t, 2)
	nw.SetAvail(0, channel.NewSet(1, 2))
	nw.SetAvail(1, channel.NewSet(2, 7))
	if got := nw.Universe(); !got.Equal(channel.NewSet(1, 2, 7)) {
		t.Fatalf("universe = %v", got)
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	nw := mustLine(t, 2)
	nodes := nw.Nodes()
	nodes[0].ID = 99
	if nw.Node(0).ID != 0 {
		t.Fatal("mutating Nodes() copy affected network")
	}
}

// TestUniverseConcurrentReaders reads the lazily cached universe from
// several goroutines on a freshly assigned network, the way trial workers
// sharing one network do. The first reads race to refresh the cache; under
// `go test -race` an unsynchronized cache fails here.
func TestUniverseConcurrentReaders(t *testing.T) {
	for round := 0; round < 4; round++ {
		nw := mustLine(t, 64)
		for u := 0; u < nw.N(); u++ {
			nw.SetAvail(NodeID(u), channel.NewSet(channel.ID(u%5), channel.ID(70)))
		}
		want := channel.NewSet(0, 1, 2, 3, 4, 70)
		const readers = 4
		got := make([]channel.Set, readers)
		done := make(chan struct{})
		for i := 0; i < readers; i++ {
			go func(i int) {
				defer func() { done <- struct{}{} }()
				got[i] = nw.Universe()
			}(i)
		}
		for i := 0; i < readers; i++ {
			<-done
		}
		for i, u := range got {
			if !u.Equal(want) {
				t.Fatalf("round %d reader %d: universe %v, want %v", round, i, u, want)
			}
		}
	}
}
