// Package core implements the paper's randomized neighbor-discovery
// algorithms for M²HeW networks.
//
// Four protocols are provided, one per algorithm in the paper:
//
//   - SyncStaged (Algorithm 1): synchronous, identical start times,
//     knowledge of an upper bound Δ_est on the maximum node degree. Time is
//     divided into stages of ⌈log₂ Δ_est⌉ slots; in slot i of a stage a node
//     transmits with probability min(1/2, |A(u)|/2^i) on a channel drawn
//     uniformly from A(u).
//   - SyncGrowing (Algorithm 2): synchronous, identical start times, no
//     degree knowledge. Stages of Algorithm 1 are executed with estimates
//     d = 2, 3, 4, … in turn.
//   - SyncUniform (Algorithm 3): synchronous, variable start times,
//     knowledge of Δ_est. Every slot uses the same transmit probability
//     min(1/2, |A(u)|/Δ_est), which makes per-slot coverage probabilities
//     time-invariant and therefore start-time independent.
//   - Async (Algorithm 4): asynchronous with bounded clock drift (δ ≤ 1/7),
//     knowledge of Δ_est. Local time is divided into frames of three slots;
//     per frame a node transmits with probability min(1/2, |A(u)|/(3·Δ_est)),
//     repeating its message in each slot, or listens for the whole frame.
//
// All protocols produce the paper's output: the set of discovered neighbors
// v together with A(v) ∩ A(u), the channels shared with each.
//
// A protocol instance belongs to one node and is driven by a simulation
// engine (package sim): the engine asks for the node's next action and
// delivers clear messages back. Protocols are deterministic functions of
// their RNG stream, so a run is reproducible from its seed.
package core

import (
	"fmt"
	"math/bits"

	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// NeighborTable is the output of neighbor discovery at one node: for every
// discovered neighbor, the channels shared with it (A(v) ∩ A(u)).
//
// The table is one slice of entries kept ascending by NodeID and searched
// by binary search, so memory tracks discoveries (~degree), not the
// network size, and no map iteration order can leak into results.
// Re-recording a known neighbor — every repeat delivery — touches one entry
// in place and allocates nothing.
type NeighborTable struct {
	entries []neighborEntry
}

// neighborEntry is one discovered neighbor and its common channel set.
type neighborEntry struct {
	id     topology.NodeID
	common channel.Set
}

// NewNeighborTable returns an empty table.
func NewNeighborTable() *NeighborTable {
	return &NeighborTable{}
}

// find returns the position of v in the table, or the position where v
// would be inserted, and whether v is present.
//
//nd:hotpath
func (t *NeighborTable) find(v topology.NodeID) (int, bool) {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.entries[mid].id < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.entries) && t.entries[lo].id == v
}

// insert places a first-time discovery at position i, keeping the entries
// ascending. Negative IDs are rejected with a panic because node IDs are
// dense non-negative by construction; a negative ID is a bug, never a data
// condition.
func (t *NeighborTable) insert(i int, v topology.NodeID, common channel.Set) {
	if v < 0 {
		panic(fmt.Sprintf("core: NeighborTable: negative node id %d", v))
	}
	t.entries = append(t.entries, neighborEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = neighborEntry{id: v, common: common}
}

// Record stores neighbor v with the given common channel set. Re-recording a
// neighbor unions the channel sets; in the paper's model repeat receptions
// carry identical sets, so the union is a no-op there, but it keeps the table
// monotone under the unreliable-channel extension.
//
//nd:hotpath
func (t *NeighborTable) Record(v topology.NodeID, common channel.Set) {
	i, ok := t.find(v)
	if !ok {
		t.insert(i, v, common.CopyInto(channel.Set{}))
		return
	}
	e := &t.entries[i]
	if common.SubsetOf(e.common) {
		return // nothing new: the union would rebuild an equal set
	}
	e.common = e.common.UnionInto(common, e.common)
}

// RecordIntersect records neighbor v with a ∩ b, computing the intersection
// directly into the table's entry storage — the zero-allocation (at steady
// state) form of Record(v, a.Intersect(b)) used by the delivery hot path.
//
//nd:hotpath
func (t *NeighborTable) RecordIntersect(v topology.NodeID, a, b channel.Set) {
	i, ok := t.find(v)
	if !ok {
		t.insert(i, v, a.IntersectInto(b, channel.Set{}))
		return
	}
	e := &t.entries[i]
	if a.IntersectionSubsetOf(b, e.common) {
		return // nothing new
	}
	// Rare monotone-extension path (a payload adding channels); keep the
	// simple allocating union rather than a third in-place primitive.
	e.common = e.common.Union(a.Intersect(b))
}

// Common returns the recorded common channel set with v and whether v has
// been discovered.
func (t *NeighborTable) Common(v topology.NodeID) (channel.Set, bool) {
	if i, ok := t.find(v); ok {
		return t.entries[i].common, true
	}
	return channel.Set{}, false
}

// Has reports whether v has been discovered.
func (t *NeighborTable) Has(v topology.NodeID) bool {
	_, ok := t.find(v)
	return ok
}

// Len returns the number of discovered neighbors.
func (t *NeighborTable) Len() int { return len(t.entries) }

// Neighbors returns the discovered neighbor IDs in ascending order.
func (t *NeighborTable) Neighbors() []topology.NodeID {
	ids := make([]topology.NodeID, len(t.entries))
	for i, e := range t.entries {
		ids[i] = e.id
	}
	return ids
}

// node is the state shared by all protocol implementations.
type node struct {
	avail channel.Set
	// ids caches avail's channels in ascending order so the per-slot channel
	// draw indexes a flat slice instead of re-walking the bitset. The draw is
	// identical to avail.Pick: Pick consumes one IntN(|A(u)|) and returns the
	// target-th smallest channel, which is exactly ids[target].
	ids   []channel.ID
	rng   *rng.Source
	table *NeighborTable
}

func newNode(avail channel.Set, r *rng.Source) (node, error) {
	if avail.IsEmpty() {
		return node{}, fmt.Errorf("core: node has empty available channel set")
	}
	if r == nil {
		return node{}, fmt.Errorf("core: node requires a random source")
	}
	a := avail.Clone()
	return node{avail: a, ids: a.IDs(), rng: r, table: NewNeighborTable()}, nil
}

// deliver implements the receive path common to all four algorithms:
// "add ⟨v, A ∩ A(u)⟩ to the set of neighbors". Repeat receptions whose
// payload adds no channels — every repeat, in the paper's model — leave the
// table untouched without materializing the intersection; engines deliver
// the same link many times per run, so this path must not allocate.
//
//nd:hotpath
func (n *node) deliver(msg radio.Message) {
	n.table.RecordIntersect(msg.From, msg.Avail, n.avail)
}

// chooseAction draws the slot/frame action used by every algorithm: a
// channel uniform over A(u), transmit with probability p, else receive.
//
//nd:hotpath
func (n *node) chooseAction(p float64) radio.Action {
	// ids[IntN(len)] is avail.Pick with the bitset walk pre-resolved: the
	// same single IntN draw, the same uniform channel (newNode rejected
	// empty sets, so ids is never empty).
	c := n.ids[n.rng.IntN(len(n.ids))]
	mode := radio.Receive
	if n.rng.Bernoulli(p) {
		mode = radio.Transmit
	}
	return radio.Action{Mode: mode, Channel: c}
}

// ceilLog2 returns ⌈log₂ x⌉ for x ≥ 1.
func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// StageLen returns the number of slots in one Algorithm-1 stage for a given
// degree estimate: ⌈log₂ Δ_est⌉, floored at 1 so the degenerate estimate
// Δ_est = 1 still yields a non-empty stage (the analysis uses
// k = max(1, ⌈log Δ⌉) for the same reason).
func StageLen(deltaEst int) int {
	if l := ceilLog2(deltaEst); l > 1 {
		return l
	}
	return 1
}

// TransmitProbStaged is the transmit probability of slot i (1-based) of an
// Algorithm-1 stage for a node with availSize channels:
// min(1/2, availSize/2^i).
func TransmitProbStaged(availSize, i int) float64 {
	p := float64(availSize) / float64(uint64(1)<<uint(i))
	if p > 0.5 {
		return 0.5
	}
	return p
}

// TransmitProbUniform is Algorithm 3's constant transmit probability:
// min(1/2, availSize/Δ_est).
func TransmitProbUniform(availSize, deltaEst int) float64 {
	p := float64(availSize) / float64(deltaEst)
	if p > 0.5 {
		return 0.5
	}
	return p
}

// TransmitProbAsync is Algorithm 4's per-frame transmit probability:
// min(1/2, availSize/(3·Δ_est)).
func TransmitProbAsync(availSize, deltaEst int) float64 {
	p := float64(availSize) / float64(3*deltaEst)
	if p > 0.5 {
		return 0.5
	}
	return p
}

func validateDeltaEst(deltaEst int) error {
	if deltaEst < 1 {
		return fmt.Errorf("core: degree estimate %d must be at least 1", deltaEst)
	}
	return nil
}

// TransmitProbAsyncSlots generalizes TransmitProbAsync to an arbitrary frame
// division: min(1/2, availSize/(slotsPerFrame·Δ_est)). Used by the E10
// ablation; the paper's value is slotsPerFrame = 3.
func TransmitProbAsyncSlots(availSize, deltaEst, slotsPerFrame int) float64 {
	p := float64(availSize) / float64(slotsPerFrame*deltaEst)
	if p > 0.5 {
		return 0.5
	}
	return p
}
