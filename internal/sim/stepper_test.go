package sim

// Differential testing of the stepper seam: the incremental default path
// (decisions pulled lazily, in whatever order the engine needs them) must
// be byte-identical to PregenStepper (every decision drawn node-major up
// front — the pre-incremental engines' order) for oblivious protocols,
// on both the synchronous and asynchronous engines, with and without loss
// models and dynamic worlds.
// Divergence means decision indexing leaked engine scheduling into a
// node's private rng stream.

import (
	"fmt"
	"testing"

	"m2hew/internal/clock"
	"m2hew/internal/core"
	"m2hew/internal/dynamics"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// PregenStepper is the pre-generating reference implementation of the
// stepper seam: it pulls every node's full decision schedule up front (node-
// major: all of node 0's decisions, then node 1's, …) and replays it on
// demand. This is exactly the decision-generation order the engines used
// before they became incremental, retained so differential tests can pin
// the lazy path to it.
//
// Pre-generation is sound only for oblivious protocols — those whose
// decisions are a function of their private randomness alone, never of
// received messages — because every decision is drawn before any Deliver
// call. The paper's algorithms are oblivious; adaptive wrappers (e.g.
// termination detection) are not and must use the default incremental
// stepper. Decisions are not validated at construction; the engine
// validates each decision it pulls, exactly as with the incremental
// stepper, so a protocol misbehaving beyond the slots a run actually
// executes fails under PregenStepper runs that reach those slots and
// nowhere else.
type PregenStepper struct {
	decisions [][]radio.Action
}

// Next implements Stepper by replaying the pre-generated schedule. It
// panics if k is outside the pre-generated horizon — the differential
// harness always sizes the horizon to the run's budget.
func (p *PregenStepper) Next(u topology.NodeID, k int) radio.Action {
	return p.decisions[u][k]
}

// NextBatch replays one slot's worth of the pre-generated schedule,
// keeping the differential reference valid for the engine's batched pull
// path too.
//
//nd:hotpath
func (p *PregenStepper) NextBatch(us []topology.NodeID, ks []int, dst []radio.Action) {
	for i, u := range us {
		dst[i] = p.decisions[u][ks[i]]
	}
}

// ConcurrentByNode marks the pregen stepper safe for per-node-disjoint
// concurrent pulls: replay reads disjoint rows of an immutable schedule.
func (p *PregenStepper) ConcurrentByNode() {}

// Horizon returns the number of decisions pre-generated per node.
func (p *PregenStepper) Horizon() int {
	if len(p.decisions) == 0 {
		return 0
	}
	return len(p.decisions[0])
}

// NewSyncPregen pre-generates horizon decisions from every synchronous
// protocol, in the node-major order the pre-incremental engine used.
func NewSyncPregen(protos []SyncProtocol, horizon int) (*PregenStepper, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("sim: pregen horizon %d must be positive", horizon)
	}
	decisions := make([][]radio.Action, len(protos))
	for u, p := range protos {
		if p == nil {
			return nil, fmt.Errorf("sim: pregen protocol for node %d is nil", u)
		}
		row := make([]radio.Action, horizon)
		for k := 0; k < horizon; k++ {
			row[k] = p.Step(k)
		}
		decisions[u] = row
	}
	return &PregenStepper{decisions: decisions}, nil
}

// NewAsyncPregen pre-generates horizon frame decisions from every
// asynchronous node's protocol, in the node-major order the
// pre-incremental engine used.
func NewAsyncPregen(nodes []AsyncNode, horizon int) (*PregenStepper, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("sim: pregen horizon %d must be positive", horizon)
	}
	decisions := make([][]radio.Action, len(nodes))
	for u := range nodes {
		p := nodes[u].Protocol
		if p == nil {
			return nil, fmt.Errorf("sim: pregen protocol for node %d is nil", u)
		}
		row := make([]radio.Action, horizon)
		for k := 0; k < horizon; k++ {
			row[k] = p.NextFrame(k)
		}
		decisions[u] = row
	}
	return &PregenStepper{decisions: decisions}, nil
}

// diffNet builds a seeded geometric multi-channel network.
func diffNet(t *testing.T, seed uint64, n int) *topology.Network {
	t.Helper()
	r := rng.New(seed)
	nw, err := topology.GeometricConnected(n, 0.55, r, 100)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	if err := topology.AssignBernoulli(nw, 6, 0.7, r); err != nil {
		t.Fatalf("channels: %v", err)
	}
	return nw
}

// syncProtos builds one seeded set of staged protocols.
func syncProtos(t *testing.T, nw *topology.Network, seed uint64) []SyncProtocol {
	t.Helper()
	root := rng.New(seed)
	protos := make([]SyncProtocol, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewSyncStaged(nw.Avail(topology.NodeID(u)), 8, root.Split())
		if err != nil {
			t.Fatalf("protocol %d: %v", u, err)
		}
		protos[u] = p
	}
	return protos
}

// sameCoverage asserts two coverage records are byte-identical: same
// target, same first-coverage instant per link, same latency profile.
func sameCoverage(t *testing.T, label string, a, b *metrics.Coverage) {
	t.Helper()
	if a.TargetSize() != b.TargetSize() || a.Remaining() != b.Remaining() {
		t.Fatalf("%s: target %d/%d remaining %d/%d", label,
			a.TargetSize(), b.TargetSize(), a.Remaining(), b.Remaining())
	}
	ca, cb := a.Curve(), b.Curve()
	if len(ca) != len(cb) {
		t.Fatalf("%s: curve lengths %d vs %d", label, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("%s: curve[%d] = %+v vs %+v", label, i, ca[i], cb[i])
		}
	}
	la, lb := a.Latencies(), b.Latencies()
	if len(la) != len(lb) {
		t.Fatalf("%s: latency counts %d vs %d", label, len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s: latency[%d] = %v vs %v", label, i, la[i], lb[i])
		}
	}
}

func TestSyncPregenDifferential(t *testing.T) {
	const maxSlots = 4000
	for _, seed := range []uint64{1, 7, 23} {
		nw := diffNet(t, seed, 14)

		lazyCfg := SyncConfig{Network: nw, Protocols: syncProtos(t, nw, seed+100), MaxSlots: maxSlots}
		lazy, err := RunSync(lazyCfg)
		if err != nil {
			t.Fatalf("seed %d lazy: %v", seed, err)
		}

		protos := syncProtos(t, nw, seed+100)
		st, err := NewSyncPregen(protos, maxSlots)
		if err != nil {
			t.Fatalf("seed %d pregen: %v", seed, err)
		}
		pre, err := RunSync(SyncConfig{Network: nw, Protocols: protos, MaxSlots: maxSlots, Stepper: st})
		if err != nil {
			t.Fatalf("seed %d pregen run: %v", seed, err)
		}

		if lazy.Complete != pre.Complete || lazy.CompletionSlot != pre.CompletionSlot {
			t.Fatalf("seed %d: completion %v@%d vs %v@%d", seed,
				lazy.Complete, lazy.CompletionSlot, pre.Complete, pre.CompletionSlot)
		}
		sameCoverage(t, "sync", lazy.Coverage, pre.Coverage)
	}
}

func TestSyncPregenDifferentialWithLoss(t *testing.T) {
	const maxSlots = 6000
	nw := diffNet(t, 5, 12)
	run := func(st func([]SyncProtocol) Stepper) *SyncResult {
		t.Helper()
		protos := syncProtos(t, nw, 42)
		loss, err := NewLossModel(0.3, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		cfg := SyncConfig{Network: nw, Protocols: protos, MaxSlots: maxSlots, Loss: loss}
		if st != nil {
			cfg.Stepper = st(protos)
		}
		res, err := RunSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lazy := run(nil)
	pre := run(func(protos []SyncProtocol) Stepper {
		st, err := NewSyncPregen(protos, maxSlots)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
	// Loss-model erasure draws are consumed in resolution order, which the
	// stepper choice does not alter — lossy runs must match too.
	sameCoverage(t, "sync+loss", lazy.Coverage, pre.Coverage)
}

func TestSyncPregenDifferentialDynamics(t *testing.T) {
	const maxSlots, epochSlots = 6000, 200
	nw := diffNet(t, 3, 14)
	spec := dynamics.Spec{
		EpochLen: epochSlots,
		Churn:    &dynamics.Churn{JoinFraction: 0.4, JoinWindow: 10, LeaveFraction: 0.2, LeaveWindow: 10},
		Primary:  &dynamics.Primary{Events: 2, Duration: 5, Radius: 0.4},
	}
	run := func(pregen bool) *SyncResult {
		t.Helper()
		protos := syncProtos(t, nw, 77)
		world, err := dynamics.NewWorld(nw, spec, maxSlots/epochSlots, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		cfg := SyncConfig{Network: nw, Protocols: protos, MaxSlots: maxSlots, Dynamics: world}
		if pregen {
			// Local activation counts never exceed the slot horizon, so the
			// static horizon bounds the pregen schedule under churn too.
			st, err := NewSyncPregen(protos, maxSlots)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Stepper = st
		}
		res, err := RunSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameCoverage(t, "sync+dynamics", run(false).Coverage, run(true).Coverage)
}

// asyncNodes builds one seeded set of asynchronous nodes with mildly
// drifting clocks and staggered starts.
func asyncNodes(t *testing.T, nw *topology.Network, seed uint64) []AsyncNode {
	t.Helper()
	root := rng.New(seed)
	nodes := make([]AsyncNode, nw.N())
	for u := 0; u < nw.N(); u++ {
		p, err := core.NewAsync(nw.Avail(topology.NodeID(u)), 8, root.Split())
		if err != nil {
			t.Fatalf("protocol %d: %v", u, err)
		}
		drift, err := clock.NewRandomWalk(0.1, 0.03, root.Split())
		if err != nil {
			t.Fatalf("drift %d: %v", u, err)
		}
		nodes[u] = AsyncNode{Protocol: p, Start: root.Float64() * 10, Drift: drift}
	}
	return nodes
}

func TestAsyncPregenDifferential(t *testing.T) {
	const maxFrames = 400
	for _, seed := range []uint64{2, 9} {
		nw := diffNet(t, seed, 12)
		run := func(pregen bool) *AsyncResult {
			t.Helper()
			nodes := asyncNodes(t, nw, seed+500)
			cfg := AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: maxFrames}
			if pregen {
				st, err := NewAsyncPregen(nodes, maxFrames)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Stepper = st
			}
			res, err := RunAsync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sameCoverage(t, "async", run(false).Coverage, run(true).Coverage)
	}
}

func TestAsyncPregenDifferentialDynamics(t *testing.T) {
	const maxFrames = 400
	nw := diffNet(t, 4, 12)
	spec := dynamics.Spec{
		EpochLen: 60,
		Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 6, LeaveFraction: 0.2, LeaveWindow: 8},
		Primary:  &dynamics.Primary{Events: 2, Duration: 4, Radius: 0.4},
	}
	newWorld := func() *dynamics.World {
		t.Helper()
		world, err := dynamics.NewWorld(nw, spec, 25, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		return world
	}
	run := func(pregen bool) *AsyncResult {
		t.Helper()
		nodes := asyncNodes(t, nw, 800)
		world := newWorld()
		cfg := AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: maxFrames, Dynamics: world}
		if pregen {
			st, err := NewAsyncPregen(nodes, maxFrames)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Stepper = st
		}
		res, err := RunAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lazy := run(false)
	sameCoverage(t, "async+dynamics", lazy.Coverage, run(true).Coverage)
	// The reference resolves each listening frame against the epoch
	// containing its start; the engine must cover exactly what it delivers.
	want := referenceForNodes(t, nw, newWorld(), asyncNodes(t, nw, 800), 3, 3, maxFrames)
	if len(want) == 0 {
		t.Fatal("reference delivered nothing; the comparison tests nothing")
	}
	coverageMatchesReference(t, "async+dynamics vs reference", lazy.Coverage, want)
}
