// Package metrics tracks discovery progress during a simulation and
// aggregates results across trials.
//
// The central type is Coverage: the oracle's view of which directed links
// have been covered (paper terminology: link (v,u) is covered when u hears a
// clear message from v) and when. Engines feed it observations; experiments
// read completion times and progress curves from it. Aggregation helpers
// summarize repeated trials into the statistics EXPERIMENTS.md reports.
package metrics

import (
	"fmt"
	"sort"

	"m2hew/internal/topology"
)

// Coverage tracks first-coverage times for a target set of directed links.
// Times are unitless float64s: slot indexes for synchronous runs, real time
// for asynchronous runs.
//
// The target is fixed at construction for static runs; time-varying runs
// grow it with AddTarget as links come into existence (churn, mobility,
// spectrum dynamics), recording each link's birth time so discovery latency
// — first coverage minus birth — stays well-defined for links that did not
// exist at time zero.
//
// Every link the coverage can ever target lives in a fixed universe stored
// in CSR form: row offsets plus ascending destination lists, so memory is
// O(links) rather than O(n²) and Observe is one binary search in the
// sender's row. A static coverage's universe is its target; a dynamic one
// (NewCoverageWithin) starts with an empty target inside the union of all
// epochs' links.
type Coverage struct {
	// Link i has From = the row whose [off[row], off[row+1]) window
	// contains i and To = to[i]. Rows ascend and to ascends within each
	// row, so index order is ascending (From, To) order.
	off []int64
	to  []topology.NodeID

	target  []uint64  // bitset over link indexes: link i is in the target
	covered []uint64  // bitset over link indexes: link i is covered
	at      []float64 // first-coverage time; meaningful where covered
	born    []float64 // birth time; nil until a link is born after time 0

	size      int // target links
	remaining int
	nonTarget int // observations outside the target set (counted, never stored)
}

// NewCoverage returns a Coverage whose completion target is the given links
// (typically Network.DiscoverableLinks()). Input that is not strictly
// ascending by (From, To) is sorted and deduplicated in a copy; node IDs
// must be non-negative.
func NewCoverage(links []topology.Link) *Coverage {
	c := NewCoverageWithin(links)
	for i := range c.target {
		c.target[i] = ^uint64(0)
	}
	if tail := len(c.to) & 63; tail != 0 {
		c.target[len(c.target)-1] = uint64(1)<<uint(tail) - 1
	}
	c.size, c.remaining = len(c.to), len(c.to)
	return c
}

// NewCoverageWithin returns a Coverage over the given link universe with
// an empty target: AddTarget grows the target within the universe as links
// are born. Dynamic runs build it over dynamics.World.Links. The input rules
// are NewCoverage's.
func NewCoverageWithin(universe []topology.Link) *Coverage {
	universe = sortedUnique(universe)
	for _, l := range universe {
		if l.From < 0 || l.To < 0 {
			panic(fmt.Sprintf("metrics: coverage link %v has a negative node id", l))
		}
	}
	rows := 0
	if len(universe) > 0 {
		rows = int(universe[len(universe)-1].From) + 1
	}
	words := (len(universe) + 63) / 64
	bitsets := make([]uint64, 2*words) // target and covered share one allocation
	c := &Coverage{
		off:     make([]int64, rows+1),
		to:      make([]topology.NodeID, len(universe)),
		target:  bitsets[:words:words],
		covered: bitsets[words:],
		at:      make([]float64, len(universe)),
	}
	row := 0
	for i, l := range universe {
		for row < int(l.From) {
			row++
			c.off[row] = int64(i)
		}
		c.to[i] = l.To
	}
	for row < rows {
		row++
		c.off[row] = int64(len(universe))
	}
	return c
}

// sortedUnique returns links when they are strictly ascending by
// (From, To) — the order Network.DiscoverableLinks produces — and a
// sorted, deduplicated copy otherwise.
func sortedUnique(links []topology.Link) []topology.Link {
	ascending := func(a, b topology.Link) bool {
		return a.From < b.From || (a.From == b.From && a.To < b.To)
	}
	for i := 1; i < len(links); i++ {
		if !ascending(links[i-1], links[i]) {
			out := append([]topology.Link(nil), links...)
			topology.SortLinks(out)
			n := 1
			for _, l := range out[1:] {
				if l != out[n-1] {
					out[n] = l
					n++
				}
			}
			return out[:n]
		}
	}
	return links
}

// index returns link l's index in the universe, or -1 when l is outside it.
//
//nd:hotpath
func (c *Coverage) index(l topology.Link) int {
	if l.From < 0 || int(l.From) >= len(c.off)-1 {
		return -1
	}
	lo, hi := c.off[l.From], c.off[l.From+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if c.to[mid] < l.To {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.off[l.From+1] && c.to[lo] == l.To {
		return int(lo)
	}
	return -1
}

// has reports whether bit i of set is on.
func has(set []uint64, i int) bool { return set[i>>6]&(uint64(1)<<(uint(i)&63)) != 0 }

// Observe records that link l was covered at the given time. It returns true
// if this is the first coverage of a target link. Observations of non-target
// links are counted (see NonTargetObservations) but never stored: the
// engines cannot produce any — a delivery implies a discoverable link, and
// the target is exactly the discoverable-link set (for dynamic runs, the
// links born so far).
//
//nd:hotpath
func (c *Coverage) Observe(l topology.Link, at float64) bool {
	i := c.index(l)
	if i < 0 || !has(c.target, i) {
		c.nonTarget++
		return false
	}
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	if c.covered[w]&bit != 0 {
		return false
	}
	c.covered[w] |= bit
	c.at[i] = at
	c.remaining--
	return true
}

// AddTarget grows the target set with link l, recording at as the link's
// birth time. It reports whether the link was new; re-adding a link already
// in the target (a link persisting across epochs) is a no-op, so the first
// epoch in which a link appears fixes its birth. l must lie in the
// universe: a link outside it is an engine bug and panics.
func (c *Coverage) AddTarget(l topology.Link, at float64) bool {
	i := c.index(l)
	if i < 0 {
		panic(fmt.Sprintf("metrics: AddTarget(%v) outside the coverage universe", l))
	}
	if has(c.target, i) {
		return false
	}
	c.target[i>>6] |= uint64(1) << (uint(i) & 63)
	c.size++
	c.remaining++
	if at != 0 {
		if c.born == nil {
			c.born = make([]float64, len(c.to))
		}
		c.born[i] = at
	}
	return true
}

// BirthTime returns when link l entered the target set: the AddTarget time,
// or 0 for links in the initial (constructor) target. ok is false for links
// outside the target.
func (c *Coverage) BirthTime(l topology.Link) (float64, bool) {
	i := c.index(l)
	if i < 0 || !has(c.target, i) {
		return 0, false
	}
	if c.born == nil {
		return 0, true
	}
	return c.born[i], true
}

// Latencies returns the discovery latency — first-coverage time minus birth
// time — of every covered target link, sorted ascending. For static runs
// (all links born at 0) this is simply the sorted first-coverage times.
func (c *Coverage) Latencies() []float64 {
	out := make([]float64, 0, c.size-c.remaining)
	for i, at := range c.at {
		if has(c.covered, i) {
			if c.born != nil {
				at -= c.born[i]
			}
			out = append(out, at)
		}
	}
	sort.Float64s(out)
	return out
}

// NonTargetObservations returns how many observations fell outside the
// target link set. A non-zero count flags mis-wired instrumentation: the
// engines only observe links on which they delivered, which are always
// discoverable.
func (c *Coverage) NonTargetObservations() int { return c.nonTarget }

// Complete reports whether every target link has been covered.
func (c *Coverage) Complete() bool { return c.remaining == 0 }

// Remaining returns the number of uncovered target links.
func (c *Coverage) Remaining() int { return c.remaining }

// TargetSize returns the number of target links.
func (c *Coverage) TargetSize() int { return c.size }

// Progress returns the covered fraction of the target in [0,1]; it is 1 for
// an empty target.
func (c *Coverage) Progress() float64 {
	if c.size == 0 {
		return 1
	}
	return float64(c.size-c.remaining) / float64(c.size)
}

// FirstCovered returns when link l was first covered. Only target links are
// ever recorded.
func (c *Coverage) FirstCovered(l topology.Link) (float64, bool) {
	i := c.index(l)
	if i < 0 || !has(c.covered, i) {
		return 0, false
	}
	return c.at[i], true
}

// CompletionTime returns the time at which the last target link was covered.
// It returns ok=false while incomplete. An empty target completes at time 0.
func (c *Coverage) CompletionTime() (float64, bool) {
	if !c.Complete() {
		return 0, false
	}
	maxAt := 0.0
	for i, at := range c.at {
		if at > maxAt && has(c.covered, i) {
			maxAt = at
		}
	}
	return maxAt, true
}

// Uncovered returns the target links not yet covered, ascending by
// (From, To). Useful in failure diagnostics.
func (c *Coverage) Uncovered() []topology.Link {
	var out []topology.Link
	for row := 0; row+1 < len(c.off); row++ {
		for i := c.off[row]; i < c.off[row+1]; i++ {
			if has(c.target, int(i)) && !has(c.covered, int(i)) {
				out = append(out, topology.Link{From: topology.NodeID(row), To: c.to[i]})
			}
		}
	}
	return out
}

// Curve returns the discovery progress curve as (time, covered-count) steps
// over target links, sorted by time. The curve starts implicitly at (−∞, 0);
// each point is the cumulative count at that coverage instant.
func (c *Coverage) Curve() []CurvePoint {
	times := make([]float64, 0, c.size-c.remaining)
	for i, at := range c.at {
		if has(c.covered, i) {
			times = append(times, at)
		}
	}
	sort.Float64s(times)
	points := make([]CurvePoint, len(times))
	for i, at := range times {
		points[i] = CurvePoint{Time: at, Covered: i + 1}
	}
	return points
}

// CurvePoint is one step of a discovery progress curve.
type CurvePoint struct {
	Time    float64 `json:"time"`
	Covered int     `json:"covered"`
}

// String summarizes progress.
func (c *Coverage) String() string {
	return fmt.Sprintf("covered %d/%d links", c.size-c.remaining, c.size)
}
