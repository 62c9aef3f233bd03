package topology

import (
	"fmt"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
)

// TestTilingPartition pins the structural invariants of the partitioner:
// every node lands in exactly one tile, tile node lists ascend, local
// indexes match positions, halo neighborhoods ascend and include the tile
// itself, and halo segments are word-aligned and sized to their tiles.
func TestTilingPartition(t *testing.T) {
	root := rng.New(41)
	for trial := 0; trial < 40; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			n := r.IntN(200) + 1
			nw, err := Geometric(n, 0.2, r)
			if err != nil {
				t.Fatal(err)
			}
			cols := r.IntN(5) + 1
			rows := r.IntN(5) + 1
			tl, err := NewTiling(nw, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			if tl.N() != n || tl.Tiles() != cols*rows {
				t.Fatalf("N=%d Tiles=%d, want %d, %d", tl.N(), tl.Tiles(), n, cols*rows)
			}

			seen := make([]bool, n)
			total := 0
			for tile := 0; tile < tl.Tiles(); tile++ {
				nodes := tl.TileNodes(tile)
				total += len(nodes)
				for li, u := range nodes {
					if seen[u] {
						t.Fatalf("node %d in two tiles", u)
					}
					seen[u] = true
					if tl.TileOf(u) != tile {
						t.Fatalf("TileOf(%d) = %d, want %d", u, tl.TileOf(u), tile)
					}
					if tl.LocalIndex(u) != li {
						t.Fatalf("LocalIndex(%d) = %d, want %d", u, tl.LocalIndex(u), li)
					}
					if li > 0 && nodes[li-1] >= u {
						t.Fatalf("tile %d nodes not ascending: %v", tile, nodes)
					}
				}
				if want := (len(nodes) + 63) / 64; tl.TileWords(tile) != want {
					t.Fatalf("TileWords(%d) = %d, want %d", tile, tl.TileWords(tile), want)
				}

				hood := tl.HaloTiles(tile)
				segs := tl.HaloSegments(tile)
				if len(segs) != len(hood)+1 {
					t.Fatalf("tile %d: %d segments for %d halo tiles", tile, len(segs), len(hood))
				}
				self := false
				for j, s := range hood {
					if int(s) == tile {
						self = true
					}
					if j > 0 && hood[j-1] >= s {
						t.Fatalf("tile %d halo not ascending: %v", tile, hood)
					}
					if got := int(segs[j+1] - segs[j]); got != tl.TileWords(int(s)) {
						t.Fatalf("tile %d segment %d: %d words, want %d", tile, j, got, tl.TileWords(int(s)))
					}
				}
				if !self {
					t.Fatalf("tile %d halo %v omits itself", tile, hood)
				}
				if tl.HaloWords(tile) != int(segs[len(segs)-1]) {
					t.Fatalf("HaloWords(%d) = %d, want %d", tile, tl.HaloWords(tile), segs[len(segs)-1])
				}

				// HaloNode inverts (tile, bit): every real node round-trips,
				// padding bits return -1.
				for j, s := range hood {
					for li, u := range tl.TileNodes(int(s)) {
						bit := int(segs[j])<<6 + li
						if got := tl.HaloNode(tile, bit); got != u {
							t.Fatalf("HaloNode(%d,%d) = %d, want %d", tile, bit, got, u)
						}
					}
					pad := int(segs[j])<<6 + len(tl.TileNodes(int(s)))
					if pad < int(segs[j+1])<<6 {
						if got := tl.HaloNode(tile, pad); got != -1 {
							t.Fatalf("HaloNode(%d,%d) = %d, want -1 (padding)", tile, pad, got)
						}
					}
				}
			}
			if total != n {
				t.Fatalf("tiles hold %d nodes, want %d", total, n)
			}
		})
	}
}

// TestTilingGeometryRespectsRadius pins the exactness precondition the
// sharded engine relies on: with cell side ≥ radius, both endpoints of
// every edge are in each other's 3×3 halo, so TileMasks builds cleanly.
func TestTilingGeometryRespectsRadius(t *testing.T) {
	root := rng.New(43)
	for trial := 0; trial < 30; trial++ {
		r := root.Split()
		radius := 0.08 + r.Float64()*0.3
		n := r.IntN(250) + 10
		nw, err := Geometric(n, radius, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := AssignUniformK(nw, 6, 3, r); err != nil {
			t.Fatal(err)
		}
		tl, err := TilingByRadius(nw, radius, r.IntN(30)+1)
		if err != nil {
			t.Fatal(err)
		}
		channels := 6
		m := NewTileMasks(tl, nw.InboundCandidates(), channels, 0)
		if m == nil && nw.EdgeCount() > 0 {
			// Only legal cause: genuinely empty candidate table.
			empty := true
			for _, l := range nw.InboundCandidates() {
				if len(l) > 0 {
					empty = false
				}
			}
			if !empty {
				t.Fatalf("trial %d: TileMasks nil despite radius-respecting tiling (n=%d radius=%v tiles=%d)",
					trial, n, radius, tl.Tiles())
			}
		}
	}
}

// TestTileMasksMatchCandidates pins every packed halo-space row back to the
// candidate table through HaloNode: bit b of listener u's channel-c row is
// set iff HaloNode maps b to a candidate transmitter with c in its span.
func TestTileMasksMatchCandidates(t *testing.T) {
	root := rng.New(47)
	for trial := 0; trial < 40; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			n := r.IntN(120) + 2
			radius := 0.15 + r.Float64()*0.2
			nw, err := Geometric(n, radius, r)
			if err != nil {
				t.Fatal(err)
			}
			universe := r.IntN(5) + 1
			if err := AssignBernoulli(nw, universe, 0.7, r); err != nil {
				t.Fatal(err)
			}
			if r.Bernoulli(0.4) {
				if err := DropRandomDirections(nw, 0.4, r); err != nil {
					t.Fatal(err)
				}
			}
			cands := nw.InboundCandidates()
			channels := 0
			if id, ok := nw.Universe().Max(); ok {
				channels = int(id) + 1
			}
			if channels == 0 {
				t.Skip("no channels assigned")
			}
			tl, err := TilingByRadius(nw, radius, r.IntN(16)+1)
			if err != nil {
				t.Fatal(err)
			}
			m := NewTileMasks(tl, cands, channels, 0)
			if m == nil {
				t.Skip("empty candidate table")
			}
			if m.Tiling() != tl || m.Channels() != channels {
				t.Fatal("accessor mismatch")
			}

			for u := 0; u < n; u++ {
				tile := tl.TileOf(NodeID(u))
				for c := 0; c < channels; c++ {
					want := make(map[int64]bool)
					for _, cand := range cands[u] {
						if cand.Span.Contains(channel.ID(c)) {
							want[int64(cand.From)] = true
						}
					}
					row, lo := m.Row(NodeID(u), channel.ID(c))
					got := make(map[int64]bool)
					for wi, w := range row {
						for ; w != 0; w &= w - 1 {
							bit := (lo+wi)<<6 + trailingZeros64(w)
							v := tl.HaloNode(tile, bit)
							if v < 0 {
								t.Fatalf("u=%d c=%d: set bit %d maps to padding", u, c, bit)
							}
							got[int64(v)] = true
						}
					}
					if len(got) != len(want) {
						t.Fatalf("u=%d c=%d: got %d transmitters, want %d", u, c, len(got), len(want))
					}
					for k := range want {
						if !got[k] {
							t.Fatalf("u=%d c=%d: missing transmitter %d", u, c, k)
						}
					}
				}
			}
		})
	}
}

// TestTileMasksHaloViolationFallsBack pins the safety valve: a tiling finer
// than the radius (edges escaping the 3×3 halo) must yield nil, never a
// silently truncated table.
func TestTileMasksHaloViolationFallsBack(t *testing.T) {
	r := rng.New(53)
	// Long-radius graph: nearly a clique in the unit square.
	nw, err := Geometric(60, 0.9, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	tl, err := NewTiling(nw, 8, 8) // cell side ~1/8 « radius
	if err != nil {
		t.Fatal(err)
	}
	if m := NewTileMasks(tl, nw.InboundCandidates(), 4, 0); m != nil {
		t.Fatal("expected nil TileMasks for halo-violating tiling")
	}
}

// TestTileMasksBudget pins the word-budget fallback.
func TestTileMasksBudget(t *testing.T) {
	r := rng.New(59)
	nw, err := Geometric(80, 0.2, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	tl, err := TilingByRadius(nw, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTileMasks(tl, nw.InboundCandidates(), 4, 0)
	if m == nil {
		t.Fatal("unbudgeted build returned nil")
	}
	if got := NewTileMasks(tl, nw.InboundCandidates(), 4, m.PackedWords()); got == nil {
		t.Fatal("build at exactly the packed size should succeed")
	}
	if got := NewTileMasks(tl, nw.InboundCandidates(), 4, m.PackedWords()-1); got != nil {
		t.Fatal("build under the packed size should return nil")
	}
}

func trailingZeros64(w uint64) int {
	n := 0
	for w&1 == 0 {
		w >>= 1
		n++
	}
	return n
}

// TestCandidateMasksMatchCandidates pins the single-tile packing — a 1×1
// tiling, whose halo space is the NodeID space — to the candidate table it
// was packed from: bit v of every (listener, channel) row is set iff some
// candidate with From v has the channel in its span. Abstract graphs
// (no coordinates) tile too: every node lands in the one cell.
func TestCandidateMasksMatchCandidates(t *testing.T) {
	root := rng.New(31)
	for trial := 0; trial < 60; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			n := r.IntN(40) + 2
			universe := r.IntN(5) + 1
			nw, err := ErdosRenyi(n, 0.3, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := AssignBernoulli(nw, universe, 0.7, r); err != nil {
				t.Fatal(err)
			}
			if r.Bernoulli(0.4) {
				if err := DropRandomDirections(nw, 0.4, r); err != nil {
					t.Fatal(err)
				}
			}
			if r.Bernoulli(0.3) && universe > 1 {
				if err := RestrictSpansRandomly(nw, 1, r); err != nil {
					t.Fatal(err)
				}
			}

			cands := nw.InboundCandidates()
			channels := 0
			if id, ok := nw.Universe().Max(); ok {
				channels = int(id) + 1
			}
			if channels == 0 {
				t.Skip("no channels assigned")
			}
			m := NewTileMasks(singleTile(t, nw), cands, channels, 0)
			if m == nil {
				t.Fatal("unbudgeted build returned nil")
			}
			if m.Channels() != channels {
				t.Fatalf("Channels() = %d, want %d", m.Channels(), channels)
			}

			for u := 0; u < n; u++ {
				for c := 0; c < channels; c++ {
					want := make(map[NodeID]bool)
					for _, cand := range cands[u] {
						if cand.Span.Contains(channel.ID(c)) {
							want[cand.From] = true
						}
					}
					row, lo := m.Row(NodeID(u), channel.ID(c))
					got := make(map[NodeID]bool)
					for wi, w := range row {
						for b := 0; b < 64; b++ {
							if w&(1<<uint(b)) != 0 {
								got[NodeID((lo+wi)*64+b)] = true
							}
						}
					}
					if len(got) != len(want) {
						t.Fatalf("listener %d channel %d: mask has %d transmitters, want %d", u, c, len(got), len(want))
					}
					for v := range want {
						if !got[v] {
							t.Fatalf("listener %d channel %d: transmitter %d missing from mask", u, c, v)
						}
					}
				}
			}
		})
	}
}

// TestCandidateMasksBudget verifies the single tile's size gate: a budget
// below the packed size rejects the build, at or above accepts it.
func TestCandidateMasksBudget(t *testing.T) {
	r := rng.New(5)
	nw, err := ErdosRenyi(30, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	tl := singleTile(t, nw)
	m := NewTileMasks(tl, nw.InboundCandidates(), 4, 0)
	if m == nil || m.PackedWords() == 0 {
		t.Fatal("expected a non-empty packed table")
	}
	if got := NewTileMasks(tl, nw.InboundCandidates(), 4, m.PackedWords()-1); got != nil {
		t.Fatal("under-budget build should return nil")
	}
	if got := NewTileMasks(tl, nw.InboundCandidates(), 4, m.PackedWords()); got == nil {
		t.Fatal("at-budget build should succeed")
	}
}

// TestCandidateMasksRowWindows checks the single tile's packing is genuinely
// windowed: a clique of two far-apart ID clusters must not store the dead
// words between a listener's low and high neighbors unless both exist.
func TestCandidateMasksRowWindows(t *testing.T) {
	// Line topology 0-1-...-199: every row covers at most two neighbor IDs,
	// so each packed row is at most 2 words even though the range is 4.
	nw, err := Line(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	m := NewTileMasks(singleTile(t, nw), nw.InboundCandidates(), 1, 0)
	if m == nil {
		t.Fatal("build failed")
	}
	for u := 0; u < 200; u++ {
		row, _ := m.Row(NodeID(u), 0)
		if len(row) > 2 {
			t.Fatalf("listener %d: row spans %d words; window not trimmed", u, len(row))
		}
	}
	// 200 nodes × ≤2 words bounds the whole table well under 200×4.
	if m.PackedWords() > 400 {
		t.Fatalf("packed size %d exceeds the windowed bound", m.PackedWords())
	}
}

// TestTileMasksEmptyTable pins the edgeless case: with channels but no
// candidates the table packs to zero words, and every row is empty.
func TestTileMasksEmptyTable(t *testing.T) {
	nw, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint channel sets: no link has a common channel.
	for u := 0; u < nw.N(); u++ {
		nw.SetAvail(NodeID(u), channel.NewSet(channel.ID(u)))
	}
	m := NewTileMasks(singleTile(t, nw), nw.InboundCandidates(), nw.N(), 0)
	if m == nil || m.PackedWords() != 0 {
		t.Fatalf("edgeless table: %v", m)
	}
	for u := 0; u < nw.N(); u++ {
		if row, _ := m.Row(NodeID(u), channel.ID(u)); len(row) != 0 {
			t.Fatalf("listener %d: non-empty row %v", u, row)
		}
	}
}

// singleTile returns nw's 1×1 tiling or fails the test.
func singleTile(t *testing.T, nw *Network) *Tiling {
	t.Helper()
	tl, err := NewTiling(nw, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}
