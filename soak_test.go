package m2hew

import (
	"testing"
)

// TestSoakLargeNetwork drives a larger end-to-end scenario than the unit
// tests: an 80-node cognitive-radio network discovered by each synchronous
// algorithm and a 40-node one by the asynchronous algorithm, with full
// table verification. Skipped under -short.
func TestSoakLargeNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	nw, err := BuildNetwork(NetworkConfig{
		Nodes:            80,
		Topology:         TopologyGeometric,
		Radius:           0.25,
		RequireConnected: true,
		Universe:         12,
		Channels:         ChannelsPrimaryUsers,
		Primaries:        18,
		Seed:             2026,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := nw.Stats()
	if s.Nodes != 80 || s.DiscoverableLinks == 0 {
		t.Fatalf("unexpected network: %+v", s)
	}
	for _, alg := range []Algorithm{AlgorithmSyncStaged, AlgorithmSyncUniform} {
		report, err := Run(nw, RunConfig{Algorithm: alg, Seed: 404})
		if err != nil {
			t.Fatal(err)
		}
		if !report.Complete {
			t.Fatalf("%s incomplete on 80 nodes: %d/%d", alg, report.LinksCovered, report.LinksTotal)
		}
		if float64(report.Slots) > report.Bound {
			t.Fatalf("%s exceeded its bound: %d > %v", alg, report.Slots, report.Bound)
		}
		verifyTables(t, nw, report)
	}

	asyncNW, err := BuildNetwork(NetworkConfig{
		Nodes:            40,
		Topology:         TopologyGeometric,
		Radius:           0.32,
		RequireConnected: true,
		Universe:         8,
		Channels:         ChannelsPrimaryUsers,
		Primaries:        12,
		Seed:             2027,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(asyncNW, RunConfig{
		Algorithm:   AlgorithmAsync,
		DriftBound:  1.0 / 7,
		StartSpread: 60,
		Seed:        405,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Complete {
		t.Fatalf("async incomplete on 40 nodes: %d/%d", report.LinksCovered, report.LinksTotal)
	}
	verifyTables(t, asyncNW, report)
}

// TestSoakScale300 pushes the synchronous path to 300 nodes — the regime
// the grid-bucket generator, compact neighbor tables, and trial-scoped
// scratch reuse target. Three trials run through RunTrials so the
// per-worker scratch seam is exercised across consecutive runs, with full
// table verification on each report. Skipped under -short.
func TestSoakScale300(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	nw, err := BuildNetwork(NetworkConfig{
		Nodes:            300,
		Topology:         TopologyGeometric,
		Radius:           0.11,
		RequireConnected: true,
		Universe:         12,
		Channels:         ChannelsPrimaryUsers,
		Primaries:        18,
		Seed:             2028,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := nw.Stats()
	if s.Nodes != 300 || s.DiscoverableLinks == 0 {
		t.Fatalf("unexpected network: %+v", s)
	}
	reports, err := RunTrials(nw, RunConfig{Algorithm: AlgorithmSyncUniform, Seed: 406}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, report := range reports {
		if !report.Complete {
			t.Fatalf("trial %d incomplete on 300 nodes: %d/%d", i, report.LinksCovered, report.LinksTotal)
		}
		if float64(report.Slots) > report.Bound {
			t.Fatalf("trial %d exceeded its bound: %d > %v", i, report.Slots, report.Bound)
		}
		verifyTables(t, nw, report)
	}
}

// verifyTables checks every node's discovered table exactly matches the
// ground truth graph and spans.
func verifyTables(t *testing.T, nw *Network, report *Report) {
	t.Helper()
	for u := 0; u < nw.N(); u++ {
		want := nw.NeighborIDs(u)
		got := report.Tables[u]
		if len(got) != len(want) {
			t.Fatalf("node %d discovered %d neighbors, want %d", u, len(got), len(want))
		}
		for i, d := range got {
			if d.Neighbor != want[i] {
				t.Fatalf("node %d neighbor list mismatch", u)
			}
			span := nw.CommonChannels(u, d.Neighbor)
			if len(span) != len(d.CommonChannels) {
				t.Fatalf("node %d neighbor %d span mismatch: %v vs %v",
					u, d.Neighbor, d.CommonChannels, span)
			}
			for j := range span {
				if span[j] != d.CommonChannels[j] {
					t.Fatalf("node %d neighbor %d channel mismatch", u, d.Neighbor)
				}
			}
		}
	}
}
