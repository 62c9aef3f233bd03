package sim

import (
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// Stepper is the engines' decision seam: the single source both engines pull
// protocol decisions through. Next returns node u's k-th decision — its k-th
// active slot for the synchronous engine, its k-th local frame for the
// asynchronous engine. Engines call Next with strictly increasing k per
// node (starting at 0, no gaps), never re-query a (u, k) pair, and validate
// every returned action against the node's available set exactly as they
// would a direct protocol call.
//
// The default steppers (built automatically from SyncConfig.Protocols /
// AsyncConfig.Nodes when the Stepper field is nil) pull each decision
// lazily, at the moment the engine first needs it. Because every protocol
// draws only from its own per-node rng.Source, the cross-node interleaving
// of Next calls is invisible in results: a node's decision sequence is a
// function of its private stream alone, so lazy pulling, eager
// pre-generation, and any engine-chosen interleaving produce byte-identical
// runs for the paper's protocols. The tests' PregenStepper materializes
// that claim as a differential reference implementation.
//
// Laziness is what makes time-varying runs possible at all: a dynamics-
// driven engine does not know in advance how many decisions a node will
// make (churned nodes are quiet while inactive and consume no decisions),
// so a pre-generated schedule indexed by global slot would desynchronize
// from the node's private stream. The stepper indexes by node-local
// activation count instead, which is well-defined under both static and
// dynamic execution.
type Stepper interface {
	Next(u topology.NodeID, k int) radio.Action
}

// BatchStepper is an optional Stepper extension: the synchronous engine
// batches all of a slot's decision pulls into one NextBatch call instead
// of n Next calls. The seam is sound for the same reason lazy pulling is —
// every protocol draws only from its own per-node rng stream, so whether
// the engine pulls decisions one call at a time or a slot at a time is
// invisible in results (NextBatch must fill dst[i] exactly as Next(us[i],
// ks[i]) would, and both built-in steppers do precisely that). Engines
// fall back to per-node Next calls for steppers without the extension.
type BatchStepper interface {
	Stepper
	// NextBatch fills dst[i] with node us[i]'s ks[i]-th decision for every
	// i. len(us) == len(ks) == len(dst); us is ascending.
	NextBatch(us []topology.NodeID, ks []int, dst []radio.Action)
}

// ConcurrentStepper marks a Stepper whose decision pulls for DIFFERENT
// nodes may be issued concurrently: Next(u, …) and Next(v, …) with u ≠ v
// from different goroutines, with per-node calls still strictly ordered
// (the tiled engine partitions nodes by tile, so one tile's pulls never
// interleave with another's for the same node). The default stepper
// qualifies — the package premise is that every protocol draws only from
// its own per-node rng stream — but a custom stepper funneling nodes
// through shared state must not declare the marker, and without it the
// engine resolves on its single tile, on the caller's goroutine.
type ConcurrentStepper interface {
	Stepper
	// ConcurrentByNode is a marker; implementations do nothing.
	ConcurrentByNode()
}

// syncStepper is the synchronous engine's default incremental stepper: each
// decision is pulled from the node's protocol when the engine reaches the
// node's k-th active slot.
type syncStepper struct{ protos []SyncProtocol }

// ConcurrentByNode marks the default stepper safe for per-node-disjoint
// concurrent pulls: each decision touches only protos[u]'s private state.
func (s syncStepper) ConcurrentByNode() {}

func (s syncStepper) Next(u topology.NodeID, k int) radio.Action {
	return s.protos[u].Step(k)
}

// NextBatch pulls one slot's decisions in ascending node order — the same
// per-node calls Next would make, amortizing the seam dispatch per slot
// instead of per node.
//
//nd:hotpath
func (s syncStepper) NextBatch(us []topology.NodeID, ks []int, dst []radio.Action) {
	for i, u := range us {
		dst[i] = s.protos[u].Step(ks[i])
	}
}

// asyncStepper is the asynchronous engine's default incremental stepper:
// each decision is pulled from the node's protocol when the engine first
// needs the node's k-th frame.
type asyncStepper struct{ nodes []AsyncNode }

func (s asyncStepper) Next(u topology.NodeID, k int) radio.Action {
	return s.nodes[u].Protocol.NextFrame(k)
}
