package core

// Differential tests for NeighborTable against refTable, a map-based
// reference model of its documented contract: every operation stream —
// randomized or fuzzed — is applied to both, and every observable (Has,
// Common, Len, Neighbors) must agree after every operation.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// refTable is the obvious map-based NeighborTable, kept only as a test
// oracle: re-recording a neighbor unions its channel sets.
type refTable map[topology.NodeID]channel.Set

func (m refTable) record(v topology.NodeID, common channel.Set) {
	m[v] = m[v].Union(common)
}

// tableOp is one step of an operation stream: RecordIntersect(v, a, b)
// when intersect is set, Record(v, a) otherwise.
type tableOp struct {
	intersect bool
	v         topology.NodeID
	a, b      channel.Set
}

// runTableOps applies ops to tbl and m and compares every observable after
// each step. probe lists IDs worth point queries beyond the recorded ones.
func runTableOps(t testing.TB, tbl *NeighborTable, m refTable, ops []tableOp, probe []topology.NodeID) {
	t.Helper()
	for i, op := range ops {
		if op.intersect {
			tbl.RecordIntersect(op.v, op.a, op.b)
			m.record(op.v, op.a.Intersect(op.b))
		} else {
			tbl.Record(op.v, op.a)
			m.record(op.v, op.a)
		}
		compareTable(t, fmt.Sprintf("op %d", i), tbl, m, append(probe, op.v))
	}
}

func compareTable(t testing.TB, step string, tbl *NeighborTable, m refTable, probe []topology.NodeID) {
	t.Helper()
	want := make([]topology.NodeID, 0, len(m))
	for v := range m {
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := tbl.Neighbors(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Neighbors %v, want %v", step, got, want)
	}
	if tbl.Len() != len(m) {
		t.Fatalf("%s: Len %d, want %d", step, tbl.Len(), len(m))
	}
	for _, v := range append(probe, want...) {
		ws, wok := m[v]
		if tbl.Has(v) != wok {
			t.Fatalf("%s: Has(%d) %v, want %v", step, v, tbl.Has(v), wok)
		}
		if s, ok := tbl.Common(v); ok != wok || !s.Equal(ws) {
			t.Fatalf("%s: Common(%d) (%v,%v), want (%v,%v)", step, v, s, ok, ws, wok)
		}
	}
}

// TestNeighborTableSparseMatchesDense runs one randomized Record /
// RecordIntersect stream twice — once on sparse IDs past 2^15, once on the
// dense ranks 0..k-1 of the same IDs — against the model, and requires the
// two tables to agree up to that relabelling: the table's behaviour must
// not depend on how large or how spread out the IDs are.
func TestNeighborTableSparseMatchesDense(t *testing.T) {
	root := rng.New(20260813)
	for trial := 0; trial < 30; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			sparseIDs := make([]topology.NodeID, 12)
			for i := range sparseIDs {
				sparseIDs[i] = topology.NodeID(1<<15 + r.IntN(1<<20))
			}
			rank := map[topology.NodeID]topology.NodeID{}
			sorted := append([]topology.NodeID(nil), sparseIDs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, v := range sorted {
				if _, ok := rank[v]; !ok {
					rank[v] = topology.NodeID(len(rank))
				}
			}

			own := randomSet(r, 8)
			var sparseOps, denseOps []tableOp
			for op := 0; op < 200; op++ {
				o := tableOp{intersect: r.Bernoulli(0.5), v: sparseIDs[r.IntN(len(sparseIDs))], a: randomSet(r, 8), b: own}
				sparseOps = append(sparseOps, o)
				o.v = rank[o.v]
				denseOps = append(denseOps, o)
			}
			sparse, dense := NewNeighborTable(), NewNeighborTable()
			runTableOps(t, sparse, refTable{}, sparseOps, []topology.NodeID{0, 1 << 15, 1<<15 + 1<<20})
			runTableOps(t, dense, refTable{}, denseOps, []topology.NodeID{0, 12, 1 << 15})

			sn, dn := sparse.Neighbors(), dense.Neighbors()
			if len(sn) != len(dn) {
				t.Fatalf("Len: sparse %d, dense %d", len(sn), len(dn))
			}
			for i, v := range sn {
				sc, _ := sparse.Common(v)
				dc, _ := dense.Common(dn[i])
				if rank[v] != dn[i] || !sc.Equal(dc) {
					t.Fatalf("entry %d: sparse (%d, %v), dense (%d, %v)", i, v, sc, dn[i], dc)
				}
			}
		})
	}
}

// randomSet draws a non-empty channel set over [0, universe).
func randomSet(r *rng.Source, universe int) channel.Set {
	var s channel.Set
	for s.IsEmpty() {
		for c := 0; c < universe; c++ {
			if r.Bernoulli(0.4) {
				s.Add(channel.ID(c))
			}
		}
	}
	return s
}

// TestNeighborTableNegativeIDPanics pins the ID contract: node IDs are
// non-negative by construction, so recording a negative one is a bug.
func TestNeighborTableNegativeIDPanics(t *testing.T) {
	for name, record := range map[string]func(*NeighborTable){
		"Record":          func(tbl *NeighborTable) { tbl.Record(-1, channel.NewSet(1)) },
		"RecordIntersect": func(tbl *NeighborTable) { tbl.RecordIntersect(-1, channel.NewSet(1), channel.NewSet(1)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("negative node id accepted")
				}
			}()
			record(NewNeighborTable())
		})
	}
}

// TestNeighborTableMemoryTracksDiscoveries pins the memory shape: a table
// that discovers a few neighbors with huge IDs holds a few entries, not a
// slot per possible ID.
func TestNeighborTableMemoryTracksDiscoveries(t *testing.T) {
	tbl := NewNeighborTable()
	set := channel.NewSet(0, 1)
	for i := 0; i < 10; i++ {
		tbl.RecordIntersect(topology.NodeID(1_000_000-i*977), set, set)
	}
	if tbl.Len() != 10 || cap(tbl.entries) > 16 {
		t.Fatalf("Len %d, entry capacity %d", tbl.Len(), cap(tbl.entries))
	}
}

// TestNeighborTableSparseSteadyStateAllocs is the steady-state guard on
// IDs past 2^15: re-recording known neighbors with subset payloads — every
// repeat delivery in the paper's model — must not allocate.
func TestNeighborTableSparseSteadyStateAllocs(t *testing.T) {
	tab := NewNeighborTable()
	own := channel.NewSet(0, 2, 4, 6)
	for i := 0; i < 64; i++ {
		tab.RecordIntersect(topology.NodeID(1<<15+i*1013), own, own)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			tab.RecordIntersect(topology.NodeID(1<<15+i*1013), own, own)
		}
	})
	if allocs != 0 {
		t.Errorf("sparse re-record allocated %.1f objects per sweep", allocs)
	}
}

// FuzzNeighborTable decodes an operation stream from the input and checks
// it against the model. Byte 0 picks the ID scale (so IDs reach past 2^15);
// then each operation takes four bytes: kind, ID, and two channel masks.
func FuzzNeighborTable(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0x0f, 0x03, 1, 3, 0x0c, 0xff, 0, 1, 0x01, 0})
	f.Add([]byte{1, 1, 200, 0xf0, 0x3c, 0, 200, 0x01, 0, 1, 7, 0xaa, 0x55, 0, 200, 0x80, 0})
	f.Add([]byte{2, 0, 9, 1, 0, 0, 4, 2, 0, 0, 9, 4, 0, 1, 4, 0xff, 0xff, 0, 1, 0xff, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		scale := []int{1, 1031, 32771}[data[0]%3]
		mask := func(b byte) channel.Set {
			var s channel.Set
			for c := 0; c < 8; c++ {
				if b&(1<<c) != 0 {
					s.Add(channel.ID(c * 17)) // IDs up to 119 span two words
				}
			}
			return s
		}
		var ops []tableOp
		for data = data[1:]; len(data) >= 4 && len(ops) < 200; data = data[4:] {
			ops = append(ops, tableOp{
				intersect: data[0]%2 == 1,
				v:         topology.NodeID(int(data[1]%32) * scale),
				a:         mask(data[2]),
				b:         mask(data[3]),
			})
		}
		runTableOps(t, NewNeighborTable(), refTable{}, ops, []topology.NodeID{0, topology.NodeID(scale)})
	})
}
