// Package sim provides the two simulation engines that execute discovery
// protocols on a network: a synchronous slotted engine and an asynchronous
// real-time engine driven by drifting per-node clocks.
//
// Both engines implement the paper's communication semantics exactly:
//
//   - Half duplex: a node in transmit mode receives nothing.
//   - No collision detection: a listener with two or more of its neighbors
//     transmitting on its channel hears only noise.
//   - Channel-scoped propagation: node v's transmission on channel c reaches
//     node u iff v is a neighbor of u and c ∈ span(u,v). Non-neighbors never
//     interfere (interference range equals communication range).
//
// Engines drive protocols through narrow interfaces (SyncProtocol,
// AsyncProtocol), report results through metrics.Coverage, and expose what
// happened through one typed observability seam: an Observer attached to
// the run configuration receives Event values (see observe.go); the trace,
// metrics and experiment layers plug in through its adapters.
//
// Decision generation is incremental: both engines pull each node's next
// decision through the Stepper seam (see stepper.go) at the moment the
// simulation first needs it, which is what lets time-varying runs (the
// Dynamics config fields) pause churned-out nodes without desynchronizing
// their private rng streams. Because every protocol draws only from its own
// per-node stream, the pull order across nodes is invisible in results.
// Pre-generation — the strategy the engines themselves used before they
// became incremental — remains valid for oblivious protocols (the paper's
// algorithms); the tests keep it as PregenStepper, the differential
// reference they pin the lazy path against.
package sim

import (
	"fmt"
	"runtime"

	"m2hew/internal/dynamics"
	"m2hew/internal/harness/tilepool"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// HeardReporter is optionally implemented by protocols that piggyback
// their discovered in-neighbor list on outgoing messages (the
// acknowledgment extension for asymmetric graphs, core.Acknowledging).
// Engines query it at delivery time, so the list reflects everything the
// sender had heard before the delivered transmission.
type HeardReporter interface {
	Heard() []topology.NodeID
}

// SyncProtocol is a per-node protocol driven by the synchronous engine.
// Step is called once per slot with the node-local slot index (0 on the
// node's first active slot); Deliver is called for each clear message the
// node receives.
type SyncProtocol interface {
	Step(localSlot int) radio.Action
	Deliver(msg radio.Message)
}

// SyncConfig configures a synchronous run.
type SyncConfig struct {
	// Network is the topology with channel assignment; required.
	Network *topology.Network
	// Protocols holds one protocol per node, indexed by NodeID; required.
	Protocols []SyncProtocol
	// StartSlots optionally delays nodes: node u is quiet before slot
	// StartSlots[u] and calls Step with localSlot = slot − StartSlots[u]
	// afterwards. Nil means all nodes start at slot 0.
	StartSlots []int
	// MaxSlots bounds the simulation; required, > 0.
	MaxSlots int
	// RunToMaxSlots keeps simulating after full coverage (used by
	// experiments that audit steady-state behaviour). Default is to stop at
	// completion.
	RunToMaxSlots bool
	// Loss, if non-nil, erases arriving transmissions per receiver with the
	// model's probability (unreliable channels).
	Loss *LossModel
	// Observer, if non-nil, receives every engine event in simulation
	// order: EventSlot once per slot, then per listener (ascending NodeID)
	// exactly one of EventDeliver, EventCollision or EventIdle. Compose
	// several consumers with MultiObserver.
	Observer Observer
	// Scratch, if non-nil, supplies reusable per-run buffers so repeated
	// runs on one goroutine stop re-allocating them (see SyncScratch for
	// the ownership and network-mutation contract). Nil means the run
	// allocates a private scratch; results are identical either way.
	Scratch *SyncScratch
	// Stepper optionally overrides where decisions come from. Nil — the
	// default — pulls each decision lazily from Protocols; a custom stepper
	// (the tests' pre-generated replay, for one) serves them instead, which
	// is sound for oblivious protocols only. Protocols remain required
	// either way: they are the Deliver targets.
	Stepper Stepper
	// Tiling, if non-nil, requests the tiled parallel resolver: per-tile
	// slot resolution on a fork-join worker pool with a deterministic
	// two-phase halo exchange per slot (see sync_tiled.go), byte-identical
	// to a run without it at matched seed. The tiling must partition this
	// network's nodes with cell side ≥ the connection radius. The grid
	// engages only when its preconditions hold — static world, loss-free,
	// no per-listener event subscription, a ConcurrentStepper (the default
	// stepper qualifies), and a halo-clean, in-budget, non-empty mask
	// table; otherwise the run falls back, deterministically, to the
	// implicit single tile every untiled run resolves on.
	Tiling *topology.Tiling
	// TileWorkers bounds the tiled resolver's parallelism (caller
	// included). 0 picks GOMAXPROCS; 1 runs the tiled path serially
	// (useful for differential tests). Ignored without Tiling. Worker
	// count never affects results, only wall-clock.
	TileWorkers int
	// Dynamics, if non-nil, runs the simulation on a time-varying world:
	// reception structure, activity and channel availability follow the
	// world's epoch schedule (see internal/dynamics). Nodes inactive in an
	// epoch are quiet without consuming a decision — their local slot
	// counter, and hence their private rng stream, pauses with them.
	// Protocol actions still validate against the static A(u): primary-user
	// blocking shrinks link spans, not the protocol's decision space. The
	// coverage target starts empty and grows with each epoch's link set
	// (births at the epoch's first slot), so Complete is reachable only
	// when links stop appearing; discovery latency comes from
	// Coverage.Latencies. Mutually exclusive with StartSlots — churn
	// schedules subsume staggered starts.
	Dynamics *dynamics.World
}

// SyncResult reports a synchronous run.
type SyncResult struct {
	// Complete is true when every discoverable link was covered.
	Complete bool
	// CompletionSlot is the 0-based global slot during which the last link
	// was covered; valid only when Complete.
	CompletionSlot int
	// SlotsSimulated is the number of slots executed.
	SlotsSimulated int
	// Coverage is the oracle's link coverage record (times are slot
	// indexes).
	Coverage *metrics.Coverage
}

func (c *SyncConfig) validate() error {
	if c.Network == nil {
		return fmt.Errorf("sim: sync config missing network")
	}
	n := c.Network.N()
	if len(c.Protocols) != n {
		return fmt.Errorf("sim: %d protocols for %d nodes", len(c.Protocols), n)
	}
	for u, p := range c.Protocols {
		if p == nil {
			return fmt.Errorf("sim: protocol for node %d is nil", u)
		}
	}
	if c.StartSlots != nil && len(c.StartSlots) != n {
		return fmt.Errorf("sim: %d start slots for %d nodes", len(c.StartSlots), n)
	}
	for u, s := range c.StartSlots {
		if s < 0 {
			return fmt.Errorf("sim: node %d has negative start slot %d", u, s)
		}
	}
	if c.MaxSlots <= 0 {
		return fmt.Errorf("sim: max slots %d must be positive", c.MaxSlots)
	}
	if c.Tiling != nil && c.Tiling.N() != n {
		return fmt.Errorf("sim: tiling partitions %d nodes, network has %d", c.Tiling.N(), n)
	}
	if c.TileWorkers < 0 {
		return fmt.Errorf("sim: tile workers %d must be non-negative", c.TileWorkers)
	}
	if err := c.Loss.validate(); err != nil {
		return err
	}
	if c.Dynamics != nil {
		if c.StartSlots != nil {
			return fmt.Errorf("sim: dynamics and start slots are mutually exclusive (churn schedules subsume staggered starts)")
		}
		if c.Dynamics.N() != n {
			return fmt.Errorf("sim: dynamics world has %d nodes, network %d", c.Dynamics.N(), n)
		}
		if _, err := c.Dynamics.EpochSlots(); err != nil {
			return err
		}
	}
	return nil
}

// RunSync executes a synchronous simulation. It returns an error for
// configuration mistakes and for protocol actions that violate the radio
// model (e.g. tuning outside the node's available set).
//
//nd:hotpath
func RunSync(cfg SyncConfig) (*SyncResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nw := cfg.Network
	n := nw.N()
	world := cfg.Dynamics
	st := cfg.Stepper
	if st == nil {
		st = syncStepper{protos: cfg.Protocols}
	}

	// Reception-resolution state, built (or borrowed from the scratch) once
	// per run and reused across slots:
	//
	//   - cands[u] lists the only transmitters listener u can ever decode
	//     (adjacency, direction and link span resolved up front by the
	//     topology layer); the scalar resolver walks it, and the word-kernel
	//     modes read the same table packed into halo-local masks;
	//   - the implicit single tile over the whole network, with its mask
	//     table (nil over budget), and the caller's grid when the run can
	//     use one (see syncMode for the per-run mode contract);
	//   - msgAvail[v] is the one immutable copy of A(v) shared by every
	//     message from v; see radio.Message for the ownership contract.
	sc := cfg.Scratch
	if sc == nil {
		sc = NewSyncScratch()
	}
	cands, msgAvail, links, tablesHit := sc.networkTables(nw)
	var coverage *metrics.Coverage
	epochSlots := 0
	if world != nil {
		epochSlots, _ = world.EpochSlots() // error ruled out by validate
		// The universe spans the epochs MaxSlots reaches; the target
		// starts empty and grows at epoch boundaries below.
		coverage = metrics.NewCoverageWithin(world.Links((cfg.MaxSlots - 1) / epochSlots))
	} else {
		coverage = metrics.NewCoverage(links)
	}
	//ndlint:ignore hotalloc one result allocation per run, not per slot
	result := &SyncResult{Coverage: coverage}

	var run syncRun
	run.nw = nw
	run.protos = cfg.Protocols
	run.obs = cfg.Observer
	run.loss = cfg.Loss
	run.st = st
	run.bst, _ = st.(BatchStepper)
	run.coverage = coverage
	run.curCands = cands    //ndlint:ignore scratchalias syncRun is a run-scoped local; the field dies with the run, before the scratch is recycled
	run.msgAvail = msgAvail // covered by the directive above (own line + next)
	run.startSlots = cfg.StartSlots
	run.actions = sc.actionBuf(n)
	if sc.channels <= 64 {
		// Every channel ID fits one word: flatten each node's availability
		// to a single mask so phase A validates with one bit test. The
		// contents are recomputed per run (cheap, O(n)); only the buffer
		// is reused.
		run.avail1 = sc.availBuf(n)
		for u := 0; u < n; u++ {
			run.avail1[u] = 0
			if w := nw.Avail(topology.NodeID(u)).Words(); len(w) > 0 {
				run.avail1[u] = w[0]
			}
		}
	}
	run.lossFree = cfg.Loss == nil || cfg.Loss.Prob <= 0
	// The observer's subscription (EventMasker; AllEvents when undeclared)
	// gates each emission site, and an observer subscribed to no
	// per-listener kind frees the engine from the per-listener event order
	// entirely — such runs resolve exactly like observerless ones (slot and
	// epoch events are unaffected: every mode emits them identically).
	mask := observerMask(cfg.Observer)
	// The internals sink is resolved once; tallying per slot is gated on it
	// so observerless runs pay one dead boolean test. A sink with a zero
	// EventMask leaves every mode decision below untouched (see
	// internals.go for the non-perturbation contract).
	sink, _ := cfg.Observer.(InternalsSink)
	run.tallyInternals = sink != nil
	run.wantDeliver = mask.Has(EventDeliver)
	run.wantColl = mask.Has(EventCollision)
	run.wantIdle = mask.Has(EventIdle)
	run.wantSlot = mask.Has(EventSlot)
	perListener := run.wantDeliver || run.wantColl || run.wantIdle

	// The caller's grid requires a static, loss-free run with no
	// per-listener events, a stepper declared safe for per-node-disjoint
	// concurrent pulls, and a halo-clean, in-budget, non-empty mask table
	// (nil on halo violation or budget overrun — the deterministic
	// fallback; an edgeless network has nothing to shard). Anything else
	// runs on the implicit single tile. Worker setup is per-run: the pool's
	// goroutines live exactly as long as the run.
	var ts tileSet
	if cfg.Tiling != nil && world == nil && run.lossFree && !perListener {
		if _, ok := st.(ConcurrentStepper); ok {
			ts = sc.gridTiles(nw, cfg.Tiling, cands)
		}
	}
	if ts.masks != nil {
		run.mode = modeTiled
		workers := cfg.TileWorkers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// Workers beyond the tile count would never find work.
		if t := cfg.Tiling.Tiles(); workers > t {
			workers = t
		}
		run.pool = tilepool.New(workers)
		defer run.pool.Close()
		run.fnA = func(ti int) { run.tileSlotA(ti) } //ndlint:ignore hotalloc two phase closures per run, not per slot
		run.fnB = func(ti int) { run.tileSlotB(ti) }
	} else {
		ts = sc.singleTile()
		switch {
		case world != nil || ts.masks == nil:
			run.mode = modeScalar
		case run.lossFree && !perListener:
			run.mode = modeBatched
		default:
			run.mode = modeKernel
		}
	}
	run.tileSet = ts
	run.storeActions = run.wantSlot || run.mode == modeScalar
	run.hrs = sc.heardBuf(n)
	for u, p := range cfg.Protocols {
		hr, _ := p.(HeardReporter)
		run.hrs[u] = hr
	}

	// Dynamic-run state: the current epoch snapshot (its candidate table
	// shadows the static table through run.curCands, so the scalar resolver
	// reads one variable either way) and per-node local-slot counters — a
	// node's decision index is its count of active slots, not the global
	// slot, so a churned node's private rng stream pauses while it is out of
	// the network.
	var cur *dynamics.Epoch
	if world != nil {
		run.locals = sc.localSlotBuf(n)
	}

	for slot := 0; slot < cfg.MaxSlots; slot++ {
		// Epoch boundary: swap in the new snapshot, announce the boundary
		// and its flips (epoch, joins, leaves, channel losses — each list
		// ascending), and grow the coverage target by the epoch's links
		// (born this slot; links persisting across epochs keep their
		// original birth).
		if world != nil {
			if e := slot / epochSlots; cur == nil || (e != cur.Index && e < world.Horizon()) {
				cur = world.At(e)
				run.curCands = cur.Cands
				run.active = cur.Active
				if mask.Has(EventEpoch) {
					cfg.Observer.OnEvent(Event{
						Kind: EventEpoch, Time: float64(slot), Slot: slot, Epoch: cur.Index,
					})
				}
				if mask.Has(EventJoin) {
					for _, v := range cur.Joined {
						cfg.Observer.OnEvent(Event{
							Kind: EventJoin, Time: float64(slot), Slot: slot, Node: v, Epoch: cur.Index,
						})
					}
				}
				if mask.Has(EventLeave) {
					for _, v := range cur.Left {
						cfg.Observer.OnEvent(Event{
							Kind: EventLeave, Time: float64(slot), Slot: slot, Node: v, Epoch: cur.Index,
						})
					}
				}
				if mask.Has(EventChannelLoss) {
					for _, l := range cur.Losses {
						cfg.Observer.OnEvent(Event{
							Kind: EventChannelLoss, Time: float64(slot), Slot: slot,
							Node: l.Node, Channel: l.Channel, Epoch: cur.Index,
						})
					}
				}
				for _, l := range cur.Links {
					coverage.AddTarget(l, float64(slot))
				}
			}
		}

		// One slot through the pipeline (sync_tiled.go). The loss-model
		// draw order is part of the reproducibility contract: exactly one
		// draw per candidate that transmits on the listener's channel over
		// an operating link, consumed in ascending candidate order,
		// stopping at the second surviving transmission, listeners in
		// ascending NodeID order (resolveSlotNaive in the differential
		// tests re-states this order from first principles).
		if err := run.runSlot(slot); err != nil {
			return nil, err
		}

		result.SlotsSimulated = slot + 1
		// Early stop requires a quiescent world: a dynamic run may grow new
		// target links at a later epoch, so full coverage now is not final
		// unless no structural change remains.
		if coverage.Complete() && !cfg.RunToMaxSlots && (cur == nil || cur.Quiescent) {
			break
		}
	}

	if coverage.Complete() {
		result.Complete = true
		at, _ := coverage.CompletionTime()
		result.CompletionSlot = int(at)
	}
	if sink != nil {
		overBudget := world == nil && sc.single.masks == nil
		sink.OnInternals(run.finalizeInternals(int64(result.SlotsSimulated), overBudget, tablesHit))
	}
	return result, nil
}

// finalizeInternals builds the run's internals report. The mode is fixed
// per run, so the per-path slot attribution is free: the whole run's slot
// count lands on the mode's counter. Stepper and halo tallies are summed
// over the run's tiles. overBudget is the static-run single-tile mask-table
// overrun (dynamic runs take the scalar mode by design and do not count);
// tablesHit reports scratch network-table reuse.
func (r *syncRun) finalizeInternals(slots int64, overBudget, tablesHit bool) Internals {
	in := Internals{SlotsSimulated: slots}
	for i := range r.tiles {
		ts := &r.tiles[i]
		in.StepperBatches += ts.batches
		in.StepperBatchNodes += ts.batchNodes
		if ts.maxBatch > in.MaxStepperBatch {
			in.MaxStepperBatch = ts.maxBatch
		}
		in.BatchSteps += ts.batchSteps
		in.HaloExchanges += ts.haloEx
		in.HaloWordsCopied += ts.haloWordsCopied
	}
	switch r.mode {
	case modeTiled:
		in.TiledSlots = slots
	case modeBatched:
		in.BatchedSlots = slots
	case modeKernel:
		in.KernelSlots = slots
	default:
		in.ScalarSlots = slots
	}
	if overBudget {
		in.MaskBudgetOverruns = 1
	}
	if tablesHit {
		in.ScratchTableHits = 1
	} else {
		in.ScratchTableMisses = 1
	}
	return in
}
