package sim

import (
	"m2hew/internal/channel"
	"m2hew/internal/harness/tilepool"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// syncMode is a run's resolution mode, fixed at setup and reported through
// its own Internals path counter. Every mode runs the one slot pipeline of
// sync_tiled.go: the same phase A scatter, and — except scalar — the same
// phase B word kernel over halo-local candidate masks.
type syncMode uint8

const (
	// modeScalar resolves with the candidate-list scan (resolveScalar):
	// dynamics worlds, whose candidate table changes per epoch, and static
	// networks without a single-tile mask table (over syncMaskWordBudget,
	// or no channels at all). Phase A still runs on the single tile.
	modeScalar syncMode = iota
	// modeBatched is the single tile, event-free and loss-free: nothing
	// observes the within-slot order.
	modeBatched
	// modeKernel is the single tile, ordered: the run has per-listener
	// event subscriptions or a loss model, so phase B's ascending listener
	// order is the event order and the erasure-draw order.
	modeKernel
	// modeTiled is the caller's grid (SyncConfig.Tiling) on the worker
	// pool.
	modeTiled
)

// syncRun is RunSync's per-run state: configuration distilled to the hot
// loop's needs, the derived network tables, the run's tiling and its
// scratch-owned tile state. It exists so the slot loop decomposes into
// //nd:hotpath methods instead of one megafunction, and so every mode
// shares one pipeline and one delivery tail.
type syncRun struct {
	nw       *topology.Network
	protos   []SyncProtocol
	obs      Observer
	loss     *LossModel
	st       Stepper
	bst      BatchStepper
	coverage *metrics.Coverage

	curCands [][]topology.Candidate
	msgAvail []channel.Set

	mode syncMode
	// tileSet is the run's tiling, its masks (unused in modeScalar) and
	// its tile state.
	tileSet
	// pool runs the grid's phases in parallel (modeTiled only); without it
	// the single tile runs inline on the caller.
	pool     *tilepool.Pool
	fnA, fnB func(int)

	// Per-slot inputs to the phases, set before each slot: the slot, and
	// the activity sources phase A reads — staggered starts, or a dynamics
	// epoch's activity with the per-node local-slot counters.
	slot       int
	startSlots []int
	active     []bool
	locals     []int

	actions []radio.Action
	avail1  []uint64
	hrs     []HeardReporter

	lossFree bool

	// tallyInternals gates the per-tile engine-internals tallies (see
	// internals.go) so runs without an InternalsSink pay one dead boolean
	// test.
	tallyInternals bool

	// Per-kind observation gates: obs != nil AND the observer's
	// subscription (EventMasker; AllEvents when undeclared) includes the
	// kind. Emission sites test one boolean instead of re-deriving the
	// mask per event.
	wantDeliver bool
	wantColl    bool
	wantIdle    bool
	wantSlot    bool
	// storeActions gates the per-decision actions[u] stores: the scalar
	// resolver reads them back and the slot event borrows the slice, but
	// the word-kernel modes with EventSlot unsubscribed never read them.
	storeActions bool

	// ev is the slot-scoped event template: Time and Slot are set once per
	// slot (runSlot), the per-event fields (Kind, From, To, Channel) are
	// overwritten — all four, every emission — at each use. The remaining
	// fields stay zero for these event kinds, so reusing the value emits
	// exactly the events the per-emission literals did.
	ev Event
}

// resolveScalar is the candidate-list scan for dynamics worlds (per-epoch
// tables) and static networks without a mask table: the single tile's
// listeners in ascending NodeID order, each scanning its candidates
// against the stored actions.
//
//nd:hotpath
func (r *syncRun) resolveScalar() {
	ts := &r.tiles[0]
	for i, uid := range ts.rxU {
		c := ts.rxC[i]
		if ts.txOn[c] == 0 {
			// Nobody transmits on c: certain silence, no draws.
			if r.wantIdle {
				r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
				r.obs.OnEvent(r.ev)
			}
			continue
		}
		var sender, firstSender topology.NodeID
		senders := 0
		for _, cand := range r.curCands[uid] {
			if r.actions[cand.From].Mode != radio.Transmit || r.actions[cand.From].Channel != c {
				continue
			}
			// The link must operate on c (span precomputed per candidate;
			// adjacency and direction already hold for every candidate).
			if !cand.Span.Contains(c) {
				continue
			}
			// Unreliable channels: the transmission may fade at uid.
			if r.loss.erased() {
				continue
			}
			if senders == 0 {
				firstSender = cand.From
			}
			senders++
			sender = cand.From
			if senders > 1 {
				break // collision; no need to scan further
			}
		}
		if senders != 1 {
			// Silence or collision: the node hears nothing useful. The
			// collision event reports only the first surviving transmitter
			// — scanning past the second would consume extra loss draws
			// and break the reproducibility contract.
			if senders == 0 {
				if r.wantIdle {
					r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
					r.obs.OnEvent(r.ev)
				}
			} else if r.wantColl {
				r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventCollision, firstSender, uid, c
				r.obs.OnEvent(r.ev)
			}
			continue
		}
		r.deliver(ts, sender, uid, c)
	}
}

// deliver delivers one unique transmission to the listener's protocol.
// The single tile then applies coverage (which ignores repeat observations
// of a covered link) and the delivery event inline. A grid tile delivers
// in-worker — safe because each listener belongs to exactly one tile and
// sender state is frozen for the slot (half duplex) — and queues the link
// for the sequential coverage apply.
//
//nd:hotpath
func (r *syncRun) deliver(ts *tileState, sender, uid topology.NodeID, c channel.ID) {
	msg := radio.Message{From: sender, Avail: r.msgAvail[sender]}
	if hr := r.hrs[sender]; hr != nil {
		msg.Heard = copyHeard(hr.Heard())
	}
	r.protos[uid].Deliver(msg)
	if r.pool != nil {
		ts.deliv = append(ts.deliv, tileDelivery{from: sender, to: uid})
		return
	}
	r.coverage.Observe(topology.Link{From: sender, To: uid}, float64(r.slot))
	if r.wantDeliver {
		r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventDeliver, sender, uid, c
		r.obs.OnEvent(r.ev)
	}
}
