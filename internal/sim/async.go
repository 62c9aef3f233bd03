package sim

import (
	"fmt"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/dynamics"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// AsyncProtocol is a per-node protocol driven by the asynchronous engine.
// NextFrame is called once per local frame with the node-local frame index;
// the returned action holds for the whole frame (transmit during each slot,
// or listen throughout). Deliver is called for each clear message received
// during a listening frame.
type AsyncProtocol interface {
	NextFrame(frame int) radio.Action
	Deliver(msg radio.Message)
}

// AsyncNode configures one node of an asynchronous run.
type AsyncNode struct {
	// Protocol decides the node's frames; required.
	Protocol AsyncProtocol
	// Start is the real time at which the node's clock starts (its local
	// time zero). Offsets between nodes are arbitrary, as in the paper.
	Start float64
	// Drift is the node's clock drift process; nil means an ideal clock.
	Drift clock.DriftProcess
}

// AsyncConfig configures an asynchronous run.
type AsyncConfig struct {
	// Network is the topology with channel assignment; required.
	Network *topology.Network
	// Nodes holds per-node protocol/clock configuration, indexed by NodeID;
	// required.
	Nodes []AsyncNode
	// FrameLen is L, the local frame length (same for all nodes, measured
	// on each node's own clock); required, > 0.
	FrameLen float64
	// SlotsPerFrame divides each frame; 0 means the paper's 3. The ablation
	// experiment uses other values.
	SlotsPerFrame int
	// MaxFrames bounds the simulation: each node executes this many frames;
	// required, > 0.
	MaxFrames int
	// Loss, if non-nil, erases arriving transmission slots per receiver
	// listening frame with the model's probability (unreliable channels).
	Loss *LossModel
	// Observer, if non-nil, receives events grouped per frame in global
	// frame-end order, equal ends in ascending NodeID: EventFrameStart,
	// that frame's EventDeliver events, then — for listening frames —
	// EventFrameResolve. Dynamic runs emit each epoch's EventEpoch, join,
	// leave and channel-loss events before the first frame ending in that
	// epoch. Compose several consumers with MultiObserver.
	Observer Observer
	// Scratch, if non-nil, supplies reusable per-run state — frame tables,
	// the frame queue, resolver buffers, optionally pooled timelines and
	// drift memos — so repeated runs on one goroutine stop re-allocating it
	// (see AsyncScratch for the ownership and network-mutation contract).
	// Nil means the run allocates a private scratch; results are identical
	// either way.
	Scratch *AsyncScratch
	// Stepper optionally overrides where frame decisions come from. Nil —
	// the default — pulls each decision lazily from Nodes' protocols; a
	// custom stepper (the tests' pre-generated replay, for one) serves them
	// instead, which is sound for oblivious protocols only. Nodes remain
	// required either way: they carry clocks and are the Deliver targets.
	Stepper Stepper
	// Dynamics, if non-nil, runs the simulation on a time-varying world:
	// each listening frame resolves against the reception structure of the
	// epoch containing the frame's start (see internal/dynamics; EpochLen is
	// in the run's real-time units). Asynchronous churn semantics differ
	// from synchronous: frame schedules never pause — clocks keep ticking —
	// but an inactive node appears in no epoch's candidate table, so it
	// neither delivers nor receives while out of the network. The coverage
	// target grows with each epoch's link set (births at the epoch start
	// time) through the epoch holding the run's last frame end.
	Dynamics *dynamics.World
}

// AsyncResult reports an asynchronous run.
type AsyncResult struct {
	// Complete is true when every discoverable link was covered within the
	// horizon.
	Complete bool
	// CompletionTime is the real time at which the last link was covered;
	// valid only when Complete.
	CompletionTime float64
	// Ts is the time by which all nodes have started (max node start) — the
	// T_s of Theorems 9 and 10.
	Ts float64
	// Coverage is the oracle's link coverage record (times are real times
	// of the clear slot's end).
	Coverage *metrics.Coverage
	// Timelines holds each node's clock timeline, for bound auditing.
	Timelines []*clock.Timeline
	// FrameBudget is the per-node frame count the run executed
	// (AsyncConfig.MaxFrames). FullFrames and MinFullFrames never count
	// frames past it: a timeline extends lazily to any index, but frames
	// beyond the budget were never simulated — no protocol decision
	// exists for them. Zero means unknown (results not produced by an
	// engine) and disables the clamp.
	FrameBudget int
}

// asyncFrame is one generated frame of one node.
type asyncFrame struct {
	start, end float64
	action     radio.Action
}

func (c *AsyncConfig) validate() error {
	if c.Network == nil {
		return fmt.Errorf("sim: async config missing network")
	}
	if len(c.Nodes) != c.Network.N() {
		return fmt.Errorf("sim: %d node configs for %d nodes", len(c.Nodes), c.Network.N())
	}
	for u, nc := range c.Nodes {
		if nc.Protocol == nil {
			return fmt.Errorf("sim: protocol for node %d is nil", u)
		}
	}
	if c.FrameLen <= 0 {
		return fmt.Errorf("sim: frame length %v must be positive", c.FrameLen)
	}
	if c.SlotsPerFrame < 0 {
		return fmt.Errorf("sim: slots per frame %d is negative", c.SlotsPerFrame)
	}
	if c.MaxFrames <= 0 {
		return fmt.Errorf("sim: max frames %d must be positive", c.MaxFrames)
	}
	if err := c.Loss.validate(); err != nil {
		return err
	}
	if c.Dynamics != nil && c.Dynamics.N() != c.Network.N() {
		return fmt.Errorf("sim: dynamics world has %d nodes, network %d", c.Dynamics.N(), c.Network.N())
	}
	return nil
}

// RunAsync executes an asynchronous simulation.
//
// Frames resolve in global frame-end order, and every clear message is
// delivered to its receiver's protocol before that protocol makes its next
// frame decision, so adaptive protocols — the termination wrapper
// core.AsyncTerminating, for one — run as they would on real radios.
// Decisions are pulled through the stepper seam one frame ahead of
// resolution, each node's in ascending frame order from its own private rng
// stream, so every node ends the run having generated exactly MaxFrames
// decisions.
//
// The frame queue is a binary min-heap of node ids keyed by (end of the
// node's oldest unresolved frame, NodeID): O(log n) per frame, and equal
// frame ends resolve in ascending NodeID. Scheduling invariant: when the
// earliest unresolved frame end belongs to node u, every node still within
// its budget has generated a frame ending at or after that instant, and
// frames never skip time, so every transmission overlapping u's frame is
// known and the resolver can run; a node past its budget transmits no more.
// Receptions are delivered at the receiving frame's end — the decode point
// is the slot end, but the protocol can act on it only at its next frame
// boundary, so delivering at frame end is behaviourally identical and keeps
// per-node delivery order deterministic.
//
//nd:hotpath
func RunAsync(cfg AsyncConfig) (*AsyncResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nw := cfg.Network
	n := nw.N()
	slotsPerFrame := cfg.SlotsPerFrame
	if slotsPerFrame == 0 {
		slotsPerFrame = 3
	}

	sc := cfg.Scratch
	if sc == nil {
		sc = NewAsyncScratch()
	}
	st := cfg.Stepper
	if st == nil {
		st = asyncStepper{nodes: cfg.Nodes}
	}

	// Clocks. Timelines and drift memos are pre-sized to the slot budget so
	// the lazy boundary/rate caches grow once instead of doubling their way
	// up (values are unchanged — only capacity moves). Drift draws happen
	// lazily, in ascending slot order per node's own drift rng.
	slotBudget := cfg.MaxFrames * slotsPerFrame
	timelines := sc.timelineSlice(n)
	ts := 0.0
	for u := 0; u < n; u++ {
		nc := cfg.Nodes[u]
		if nc.Start > ts {
			ts = nc.Start
		}
		tl, err := sc.timelineFor(u, nc.Start, cfg.FrameLen, slotsPerFrame, nc.Drift)
		if err != nil {
			return nil, fmt.Errorf("sim: node %d clock: %w", u, err)
		}
		tl.Reserve(slotBudget)
		if sc.RecycleTimelines {
			// Same caller contract as timeline recycling: a prior trial's
			// drift is never queried again, so its memo's backing array can
			// seed this trial's walk (capacity only — the rates this walk
			// returns are generated from its own rng as usual).
			sc.adoptRateBuf(nc.Drift)
		}
		reserveDrift(nc.Drift, slotBudget)
		timelines[u] = tl
	}

	frames := sc.frameTables(n, cfg.MaxFrames) // appended to as frames generate
	cands, msgAvail := sc.networkTables(nw)
	env := sc.envFor(nw, cands, frames, timelines, slotsPerFrame, cfg.Loss)
	world := cfg.Dynamics
	env.world = world

	// Dynamic runs start the coverage target at epoch 0's links and grow it
	// as the pass crosses epoch boundaries (announceEpoch), so every
	// delivery finds its link already targeted: a delivered link existed in
	// the epoch of its listening frame's start, which the pass reaches
	// before that frame resolves. Frame ends come from the clocks alone, so
	// the last epoch the pass reaches — the one holding the latest final
	// frame end — is known up front and bounds the link universe.
	var coverage *metrics.Coverage
	if world == nil {
		coverage = metrics.NewCoverage(nw.DiscoverableLinks())
	} else {
		lastEnd := 0.0
		for _, tl := range timelines {
			if _, end := tl.FrameInterval(cfg.MaxFrames - 1); end > lastEnd {
				lastEnd = end
			}
		}
		coverage = metrics.NewCoverageWithin(world.Links(world.EpochOf(lastEnd)))
		announceEpoch(world, 0, coverage, cfg.Observer)
	}
	nextEpoch := 1

	// Prime every node with its first frame (MaxFrames is positive) and
	// heap-order the queue.
	queue := sc.frameQueue(n)
	for u := 0; u < n; u++ {
		if err := env.generate(u, st); err != nil {
			return nil, err
		}
		queue[u] = frameKey{end: env.frames[u][0].end, node: int32(u)}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(queue, i)
	}

	for len(queue) > 0 {
		u := int(queue[0].node)
		uid := topology.NodeID(u)
		f := len(env.frames[u]) - 1 // the oldest unresolved frame is the newest generated
		g := env.frames[u][f]

		// Cross epoch boundaries up to this frame's end before resolving
		// it: frame ends pop in ascending order, so the advance is
		// monotone, and any link this frame delivers on was born in an
		// epoch at or before the one containing its start.
		if world != nil {
			for target := world.EpochOf(g.end); nextEpoch <= target; nextEpoch++ {
				announceEpoch(world, nextEpoch, coverage, cfg.Observer)
			}
		}

		// Events for this frame are emitted at its resolution point (the
		// frame's end); EventFrameStart still carries the frame's real
		// start time.
		if cfg.Observer != nil {
			cfg.Observer.OnEvent(Event{
				Kind: EventFrameStart, Time: g.start, Slot: f,
				Node: uid, Action: g.action,
			})
		}
		ds := env.resolveFrame(uid, g)
		for _, d := range ds {
			msg := radio.Message{From: d.from, Avail: msgAvail[d.from]}
			if hr, ok := cfg.Nodes[d.from].Protocol.(HeardReporter); ok {
				msg.Heard = copyHeard(hr.Heard())
			}
			cfg.Nodes[d.to].Protocol.Deliver(msg)
			coverage.Observe(topology.Link{From: d.from, To: d.to}, d.at)
			if cfg.Observer != nil {
				cfg.Observer.OnEvent(Event{
					Kind: EventDeliver, Time: d.at,
					From: d.from, To: d.to, Channel: d.ch,
				})
			}
		}
		if cfg.Observer != nil && g.action.Mode == radio.Receive {
			cfg.Observer.OnEvent(Event{
				Kind: EventFrameResolve, Time: g.end, Slot: f,
				Node: uid, Action: g.action,
				Collected: env.lastCollected, Delivered: len(ds),
			})
		}

		// Generate u's next frame — its protocol has now seen everything it
		// could have heard — and re-key u; a node at its budget leaves the
		// queue.
		if f+1 < cfg.MaxFrames {
			if err := env.generate(u, st); err != nil {
				return nil, err
			}
			queue[0].end = env.frames[u][f+1].end
		} else {
			last := len(queue) - 1
			queue[0] = queue[last]
			queue = queue[:last]
		}
		siftDown(queue, 0)
	}

	if sc.RecycleTimelines {
		// All timeline (and hence drift) reads for this run are done; pull
		// the rate memos' backing arrays back for the next trial.
		sc.reclaimRateBufs(cfg.Nodes)
	}

	// The result escapes by design: one allocation per run, and Timelines
	// hands the scratch-pooled timelines to the caller under the
	// RecycleTimelines ownership contract (AsyncScratch documents it).
	//ndlint:ignore hotalloc one result allocation per run, not per frame
	result := &AsyncResult{Ts: ts, Coverage: coverage, Timelines: timelines, FrameBudget: cfg.MaxFrames} //ndlint:ignore scratchalias Timelines ownership transfers per the RecycleTimelines contract
	if coverage.Complete() {
		result.Complete = true
		result.CompletionTime, _ = coverage.CompletionTime()
	}
	return result, nil
}

// frameKey is one node's entry in RunAsync's frame queue: the end time of
// its oldest unresolved frame.
type frameKey struct {
	end  float64
	node int32
}

// before orders queue entries by frame end, equal ends by ascending node.
// No two entries tie, since each node holds one entry.
func (a frameKey) before(b frameKey) bool {
	return a.end < b.end || (a.end == b.end && a.node < b.node)
}

// siftDown restores the min-heap order of q after the entry at i was
// re-keyed later or replaced. It walks the hole at i down to a leaf along
// the earlier child, then sifts the entry up from there: a re-keyed frame
// end is usually among the latest in the queue, so it settles near the
// leaves, and the walk costs one comparison per level instead of two.
//
//nd:hotpath
func siftDown(q []frameKey, i int) {
	if i >= len(q) {
		return // the last node just left the queue
	}
	x, top := q[i], i
	for c := 2*i + 1; c < len(q); c = 2*i + 1 {
		if r := c + 1; r < len(q) && q[r].before(q[c]) {
			c = r
		}
		q[i] = q[c]
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// generate pulls node v's next frame decision from the stepper, validates
// it, and appends the frame to the env's tables (capacity was reserved for
// the whole budget, so appends never reallocate). The engine generates
// exclusively through it, always in ascending frame order per node.
//
//nd:hotpath
func (env *asyncEnv) generate(v int, st Stepper) error {
	f := len(env.frames[v])
	a := st.Next(topology.NodeID(v), f)
	if err := a.Validate(env.nw.Avail(topology.NodeID(v))); err != nil {
		return fmt.Errorf("sim: node %d frame %d: %w", v, f, err)
	}
	fs, fe := env.timelines[v].FrameInterval(f)
	env.frames[v] = append(env.frames[v], asyncFrame{start: fs, end: fe, action: a})
	return nil
}

// announceEpoch reports epoch e of a dynamic run: its boundary, join, leave
// and channel-loss events go to obs (if non-nil), and its links join the
// coverage target, born at the epoch's start time.
func announceEpoch(world *dynamics.World, e int, coverage *metrics.Coverage, obs Observer) {
	ep := world.At(e)
	at := float64(e) * world.EpochLen()
	if obs != nil {
		obs.OnEvent(Event{Kind: EventEpoch, Time: at, Epoch: e})
		for _, v := range ep.Joined {
			obs.OnEvent(Event{Kind: EventJoin, Time: at, Node: v, Epoch: e})
		}
		for _, v := range ep.Left {
			obs.OnEvent(Event{Kind: EventLeave, Time: at, Node: v, Epoch: e})
		}
		for _, l := range ep.Losses {
			obs.OnEvent(Event{Kind: EventChannelLoss, Time: at, Node: l.Node, Channel: l.Channel, Epoch: e})
		}
	}
	for _, l := range ep.Links {
		coverage.AddTarget(l, at)
	}
}

// sharedMsgAvail clones each node's available set once per run; every
// message from the same sender shares the copy (see radio.Message for the
// read-only contract). One clone per node replaces one clone per delivery.
func sharedMsgAvail(nw *topology.Network) []channel.Set {
	out := make([]channel.Set, nw.N())
	for u := range out {
		out[u] = nw.Avail(topology.NodeID(u)).Clone()
	}
	return out
}

// FullFrames returns the number of full frames of node u that lie entirely
// within the real-time interval [from, to] — the quantity Theorem 9 counts
// ("each node has executed at least M full frames since T_s"). Counting
// stops at the run's frame budget: an interval reaching past the horizon
// counts only frames the engine actually executed, instead of walking the
// lazily-extending timeline into frames no protocol ever decided.
func (r *AsyncResult) FullFrames(u topology.NodeID, from, to float64) int {
	tl := r.Timelines[u]
	f := tl.FirstFullFrameAfter(from)
	count := 0
	for ; r.FrameBudget == 0 || f < r.FrameBudget; f++ {
		_, end := tl.FrameInterval(f)
		if end > to {
			break
		}
		count++
	}
	return count
}

// MinFullFrames returns the smallest per-node count of full frames within
// [from, to] over all nodes.
func (r *AsyncResult) MinFullFrames(from, to float64) int {
	minCount := -1
	for u := range r.Timelines {
		c := r.FullFrames(topology.NodeID(u), from, to)
		if minCount < 0 || c < minCount {
			minCount = c
		}
	}
	return minCount
}
