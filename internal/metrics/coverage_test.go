package metrics

// Differential tests for Coverage against refCoverage, a map-based
// reference model of its documented contract. Every operation stream —
// hand-picked, randomized, or fuzzed — is applied to both, and every
// observable must agree after every operation.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// refCoverage is the obvious map-based implementation of Coverage's
// contract, kept only as a test oracle. The universe bounds AddTarget the
// way Coverage's link universe does.
type refCoverage struct {
	universe  map[topology.Link]bool
	target    map[topology.Link]bool
	first     map[topology.Link]float64
	born      map[topology.Link]float64
	nonTarget int
}

// newRefCoverage models NewCoverage(universe) when targeted, and
// NewCoverageWithin(universe) otherwise.
func newRefCoverage(universe []topology.Link, targeted bool) *refCoverage {
	m := &refCoverage{
		universe: map[topology.Link]bool{},
		target:   map[topology.Link]bool{},
		first:    map[topology.Link]float64{},
		born:     map[topology.Link]float64{},
	}
	for _, l := range universe {
		m.universe[l] = true
		if targeted {
			m.target[l] = true
		}
	}
	return m
}

func (m *refCoverage) observe(l topology.Link, at float64) bool {
	if !m.target[l] {
		m.nonTarget++
		return false
	}
	if _, ok := m.first[l]; ok {
		return false
	}
	m.first[l] = at
	return true
}

func (m *refCoverage) addTarget(l topology.Link, at float64) bool {
	if m.target[l] {
		return false
	}
	m.target[l] = true
	m.born[l] = at
	return true
}

func (m *refCoverage) uncovered() []topology.Link {
	var out []topology.Link
	for l := range m.target {
		if _, ok := m.first[l]; !ok {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

func (m *refCoverage) coverTimes() (times, latencies []float64) {
	times, latencies = []float64{}, []float64{}
	for l, at := range m.first {
		times = append(times, at)
		latencies = append(latencies, at-m.born[l])
	}
	sort.Float64s(times)
	sort.Float64s(latencies)
	return times, latencies
}

// compareCoverage asserts every observable of c matches the model. probe
// lists the links worth point queries (targets, pre-birth universe links,
// links outside the universe).
func compareCoverage(t testing.TB, step string, c *Coverage, m *refCoverage, probe []topology.Link) {
	t.Helper()
	size, remaining := len(m.target), len(m.target)-len(m.first)
	if c.TargetSize() != size || c.Remaining() != remaining || c.Complete() != (remaining == 0) {
		t.Fatalf("%s: size/remaining/complete %d/%d/%v, want %d/%d/%v",
			step, c.TargetSize(), c.Remaining(), c.Complete(), size, remaining, remaining == 0)
	}
	if got := c.NonTargetObservations(); got != m.nonTarget {
		t.Fatalf("%s: NonTargetObservations %d, want %d", step, got, m.nonTarget)
	}
	progress := 1.0
	if size > 0 {
		progress = float64(size-remaining) / float64(size)
	}
	if got := c.Progress(); got != progress {
		t.Fatalf("%s: Progress %v, want %v", step, got, progress)
	}
	if got, want := c.String(), fmt.Sprintf("covered %d/%d links", size-remaining, size); got != want {
		t.Fatalf("%s: String %q, want %q", step, got, want)
	}
	times, latencies := m.coverTimes()
	if got := c.Latencies(); !reflect.DeepEqual(got, latencies) {
		t.Fatalf("%s: Latencies %v, want %v", step, got, latencies)
	}
	curve := make([]CurvePoint, len(times))
	for i, at := range times {
		curve[i] = CurvePoint{Time: at, Covered: i + 1}
	}
	if got := c.Curve(); !reflect.DeepEqual(got, curve) {
		t.Fatalf("%s: Curve %v, want %v", step, got, curve)
	}
	if got, want := c.Uncovered(), m.uncovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Uncovered %v, want %v", step, got, want)
	}
	wantAt := 0.0
	for _, at := range times {
		wantAt = math.Max(wantAt, at)
	}
	if at, ok := c.CompletionTime(); ok != (remaining == 0) || (ok && at != wantAt) {
		t.Fatalf("%s: CompletionTime (%v,%v), want (%v,%v)", step, at, ok, wantAt, remaining == 0)
	}
	for _, l := range probe {
		at, ok := c.FirstCovered(l)
		wat, wok := m.first[l]
		if at != wat || ok != wok {
			t.Fatalf("%s: FirstCovered(%v) (%v,%v), want (%v,%v)", step, l, at, ok, wat, wok)
		}
		b, ok := c.BirthTime(l)
		wb, wok := m.born[l], m.target[l]
		if b != wb || ok != wok {
			t.Fatalf("%s: BirthTime(%v) (%v,%v), want (%v,%v)", step, l, b, ok, wb, wok)
		}
	}
}

// coverageOp is one step of an operation stream: an AddTarget when add is
// set, an Observe otherwise.
type coverageOp struct {
	add  bool
	link topology.Link
	at   float64
}

// runCoverageOps applies ops to c and m, comparing return values and every
// observable after each step. AddTarget ops must stay inside the universe.
func runCoverageOps(t testing.TB, c *Coverage, m *refCoverage, ops []coverageOp, probe []topology.Link) {
	t.Helper()
	compareCoverage(t, "initial", c, m, probe)
	for i, op := range ops {
		var got, want bool
		if op.add {
			got, want = c.AddTarget(op.link, op.at), m.addTarget(op.link, op.at)
		} else {
			got, want = c.Observe(op.link, op.at), m.observe(op.link, op.at)
		}
		if got != want {
			t.Fatalf("op %d %+v: returned %v, want %v", i, op, got, want)
		}
		compareCoverage(t, fmt.Sprintf("op %d", i), c, m, probe)
	}
}

// randomLinks draws n links with endpoints base+[0, span): unsorted, and
// with duplicates whenever span is small.
func randomLinks(r *rng.Source, n, base, span int) []topology.Link {
	out := make([]topology.Link, n)
	for i := range out {
		out[i] = topology.Link{
			From: topology.NodeID(base + r.IntN(span)),
			To:   topology.NodeID(base + r.IntN(span)),
		}
	}
	return out
}

// TestCoverageDenseMapEquivalence checks a static coverage over small IDs
// (under 1024) against the model. Constructor input is unsorted with
// duplicates, and must come back untouched; the stream mixes first and
// repeat observations, non-target links, negative and out-of-range IDs,
// and re-adds of target links.
func TestCoverageDenseMapEquivalence(t *testing.T) {
	root := rng.New(20260811)
	for trial := 0; trial < 50; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			const span = 12
			links := randomLinks(r, r.IntN(20)+1, 0, span)
			input := append([]topology.Link(nil), links...)
			c := NewCoverage(links)
			if !reflect.DeepEqual(links, input) {
				t.Fatal("NewCoverage modified its input")
			}
			m := newRefCoverage(links, true)

			probe := append(randomLinks(r, 8, 0, span+4), links...)
			probe = append(probe, topology.Link{From: -1, To: 0}, topology.Link{From: 0, To: 1 << 20})
			var ops []coverageOp
			for op, n := 0, r.IntN(60)+20; op < n; op++ {
				at := float64(op)
				switch k := r.IntN(10); {
				case k < 2:
					ops = append(ops, coverageOp{add: true, link: links[r.IntN(len(links))], at: at})
				case k < 3:
					ops = append(ops, coverageOp{link: topology.Link{From: -1, To: topology.NodeID(r.IntN(span))}, at: at})
				case k < 5:
					ops = append(ops, coverageOp{link: probe[r.IntN(len(probe))], at: at})
				default:
					ops = append(ops, coverageOp{link: links[r.IntN(len(links))], at: at})
				}
			}
			runCoverageOps(t, c, m, ops, probe)
		})
	}
}

// TestCoverageCSRMapEquivalence checks a dynamic coverage over IDs past
// 2^15 against the model: an empty target inside a universe given sorted
// or unsorted, links born at zero and later times, observations before a
// link's birth, re-adds that must keep the first birth, and observations
// outside the universe.
func TestCoverageCSRMapEquivalence(t *testing.T) {
	root := rng.New(20260814)
	for trial := 0; trial < 50; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			base, span := 1<<15+r.IntN(1<<16), 40
			universe := randomLinks(r, r.IntN(30)+2, base, span)
			if trial%2 == 0 {
				universe = sortedUnique(universe)
			}
			c := NewCoverageWithin(universe)
			m := newRefCoverage(universe, false)

			outside := randomLinks(r, 6, base+span, span)
			probe := append(append([]topology.Link(nil), universe...), outside...)
			probe = append(probe, topology.Link{From: -3, To: topology.NodeID(base)})
			var ops []coverageOp
			for op, n := 0, r.IntN(80)+20; op < n; op++ {
				at := float64(op)
				l := universe[r.IntN(len(universe))]
				switch k := r.IntN(10); {
				case k < 3:
					if r.Bernoulli(0.3) {
						at = 0
					}
					ops = append(ops, coverageOp{add: true, link: l, at: at})
				case k < 4:
					ops = append(ops, coverageOp{link: probe[r.IntN(len(probe))], at: at})
				default:
					ops = append(ops, coverageOp{link: l, at: at})
				}
			}
			runCoverageOps(t, c, m, ops, probe)
		})
	}
}

// TestCoverageAddTargetOutsideUniverse pins the universe contract: growing
// the target by a link the universe lacks is an engine bug and panics.
func TestCoverageAddTargetOutsideUniverse(t *testing.T) {
	c := NewCoverageWithin(links([2]int{0, 1}, [2]int{2, 3}))
	if !c.AddTarget(topology.Link{From: 2, To: 3}, 4) {
		t.Fatal("universe link not added")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddTarget outside the universe did not panic")
		}
	}()
	c.AddTarget(topology.Link{From: 1, To: 0}, 5)
}

// TestCoverageNegativeIDPanics pins the constructor contract: node IDs are
// non-negative by construction, so a negative one is a bug.
func TestCoverageNegativeIDPanics(t *testing.T) {
	for _, bad := range [][]topology.Link{
		links([2]int{-5, 1}),
		links([2]int{0, 1}, [2]int{2, -1}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative node id in %v accepted", bad)
				}
			}()
			NewCoverageWithin(bad)
		}()
	}
}

// TestCoverageRowTableSize pins the memory shape: the row table grows with
// the largest sender ID and the per-link arrays with the link count, so a
// few links between huge IDs cost O(max ID), never O(n²).
func TestCoverageRowTableSize(t *testing.T) {
	const far = 1 << 20
	c := NewCoverage(links([2]int{far, 2}, [2]int{far, 1}))
	if len(c.off) != far+2 || len(c.to) != 2 || len(c.at) != 2 || len(c.target) != 1 {
		t.Errorf("sizes: off %d, to %d, at %d, target words %d", len(c.off), len(c.to), len(c.at), len(c.target))
	}
}

// TestCoverageCSRObserveAllocs pins the per-delivery hot path: observing
// links — first coverage, repeats of covered links, and links outside the
// target — allocates nothing.
func TestCoverageCSRObserveAllocs(t *testing.T) {
	const big = 1<<15 + 1
	target := links([2]int{big, 4}, [2]int{big, 9}, [2]int{big + 2, 4})
	c := NewCoverage(target)
	probe := append(target, topology.Link{From: 3, To: big}, topology.Link{From: big, To: 5})
	at := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		at++
		for _, l := range probe {
			c.Observe(l, at)
		}
	}); allocs != 0 {
		t.Errorf("Observe allocated %.1f objects per sweep", allocs)
	}
	if !c.Complete() {
		t.Fatal("sweeps did not cover the target")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Observe(target[1], 7)
	}); allocs != 0 {
		t.Errorf("re-observing a covered link allocated %.1f objects", allocs)
	}
}

// FuzzCoverage decodes a universe and an operation stream from the input
// and checks them against the model. Byte 0 picks the ID scale (so IDs
// reach past 1024 and 2^15) and whether the coverage is static or dynamic;
// byte 1 the universe size; then two bytes per universe link; then three
// bytes per operation.
func FuzzCoverage(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 1, 0, 1, 2, 0, 0, 0, 1, 1, 0, 1, 1, 2, 1})
	f.Add([]byte{3, 4, 1, 2, 2, 1, 9, 9, 1, 2, 1, 0, 0, 2, 1, 5, 0, 3, 200, 0, 7})
	f.Add([]byte{5, 5, 0, 0, 0, 1, 1, 0, 3, 3, 0, 1, 1, 4, 0, 0, 1, 2, 2, 0, 3, 3, 255, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		scale := []int{1, 1031, 32771}[data[0]%3]
		dynamic := data[0]&4 != 0
		id := func(b byte) topology.NodeID {
			if b == 255 {
				return -1
			}
			return topology.NodeID(int(b%16) * scale)
		}
		n := int(data[1] % 24)
		data = data[2:]
		var universe []topology.Link
		for ; n > 0 && len(data) >= 2; n, data = n-1, data[2:] {
			universe = append(universe, topology.Link{From: id(data[0]), To: id(data[1])})
		}
		for _, l := range universe {
			if l.From < 0 || l.To < 0 {
				return // NewCoverage panics on negative IDs by contract
			}
		}
		var c *Coverage
		if dynamic {
			c = NewCoverageWithin(universe)
		} else {
			c = NewCoverage(universe)
		}
		m := newRefCoverage(universe, !dynamic)
		probe := append([]topology.Link(nil), universe...)
		var ops []coverageOp
		for i := 0; len(data) >= 3 && i < 200; i, data = i+1, data[3:] {
			op := coverageOp{link: topology.Link{From: id(data[1]), To: id(data[2])}, at: float64(i)}
			if len(universe) > 0 && data[0]%4 != 3 {
				// Kinds 0-2 name a universe link; kind 1 adds it to the
				// target, born at time zero when the byte is even.
				op.link = universe[int(data[1])%len(universe)]
				if data[0]%4 == 1 {
					op.add = true
					if data[2]%2 == 0 {
						op.at = 0
					}
				}
			}
			ops = append(ops, op)
			probe = append(probe, op.link)
		}
		runCoverageOps(t, c, m, ops, probe)
	})
}
