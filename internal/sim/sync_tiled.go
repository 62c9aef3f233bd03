package sim

import (
	"fmt"
	"math/bits"

	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// This file is the synchronous engine's one slot pipeline. Every run
// resolves on a tiling: the caller's grid (SyncConfig.Tiling, cell side ≥
// radius) or, when there is none or the run cannot use it, one implicit
// tile holding the whole network, whose halo space is the NodeID space.
// Each slot runs two phases per tile:
//
//	phase A  clear the tile's per-slot state, pull its active nodes'
//	         decisions through the stepper seam, validate, and scatter
//	         transmitters into the tile-local per-channel word masks and
//	         listeners into the tile's listener list;
//	barrier  (grid) the pool's join publishes every tile's transmitter
//	         masks; the error sweep and the slot event run on the caller;
//	phase B  for each listener in ascending NodeID order, take the halo
//	         transmitter mask on its channel — word-copied from the 3×3
//	         neighbor tiles' segments, or the tile's own masks when the
//	         tile is its own halo — and intersect the listener's
//	         halo-local candidate row (topology.TileMasks) against it;
//	apply    (grid) the caller, sequentially in ascending tile order:
//	         coverage bookkeeping for the phase's deliveries.
//
// On a grid both phases run per tile on a tilepool, in parallel. The
// single tile runs them inline and in order: phase B delivers as it goes
// (protocol, coverage, delivery event), emits idle and collision events,
// and walks a lossy listener's overlap bits in candidate order, drawing
// per bit — so the event order and the loss-draw order are the listener-
// major order resolveSlotNaive (the test oracle) defines.
//
// Byte-identity of a grid run with the single tile at matched seed rests on
// the preconditions the grid requires (static world, loss-free, no
// per-listener observer subscription, a ConcurrentStepper):
//
//   - decisions: every protocol draws from its own per-node rng stream and
//     per-node pull order is preserved (ascending local slot), so pulling
//     tile-by-tile in parallel yields the decision sequences the single
//     tile pulls — the pool's barrier separates slot s's pulls from slot
//     s's deliveries exactly as the inline phase split does, so even
//     adaptive (non-oblivious) protocols see the identical interleaving of
//     Step and Deliver calls;
//   - resolution: each listener is resolved by exactly one tile (its own),
//     against a halo mask that the barrier guarantees is the slot's
//     complete transmitter picture within radio reach (NewTileMasks proved
//     structurally that no candidate lies outside the halo), through the
//     same OverlapResolve kernel;
//   - effects: with no loss model there are no shared-rng draws to order,
//     with no per-listener events there is no event order to preserve, a
//     listener receives at most one delivery per slot, and half duplex
//     means no sender's state (HeardReporter snapshots included) can
//     change mid-slot — so the within-slot delivery order is invisible,
//     and the order-sensitive residue (coverage bookkeeping) is applied
//     sequentially after the barrier;
//   - errors: each tile validates its nodes in ascending NodeID order and
//     stops at its first failure; the engine reports the minimum failing
//     node across tiles, which is the first failure an ascending scan of
//     the whole network would hit (validity is a per-node property), with
//     the identical message.

// tileDelivery is one phase-B delivery on a grid, queued for the
// sequential coverage-apply step.
type tileDelivery struct {
	from, to topology.NodeID
}

// tileState is one tile's scratch: phase A's decision and scatter buffers,
// phase B's halo assembly, and the tile's internals tallies. Workers touch
// only their own tile's state during a phase (phase B additionally READS
// neighbor tiles' phase-A outputs, sequenced by the pool barrier), so no
// two goroutines ever write the same state.
type tileState struct {
	nodes     []topology.NodeID // the tile's nodes, ascending (shared storage)
	words     int               // word width of the tile's own segment
	haloWords int               // word width of the tile's halo space

	us  []topology.NodeID
	ks  []int
	dec []radio.Action

	localTx   []uint64 // channel-major transmitter masks, channels × words
	txOn      []int32  // per-channel transmitter count in this tile
	txTouched []channel.ID

	rxU []topology.NodeID
	rxC []channel.ID

	// Halo assembly, nil on a tile that is its own halo (a 1×1 grid, the
	// implicit tile included): its halo space is its own segment, so
	// phase B reads localTx directly.
	halo      []uint64 // channel-major halo masks, channels × haloWords
	haloStamp []int    // per channel: slot of last assembly (-1 = never)
	haloLive  []bool   // per channel: any transmitter present at last assembly

	deliv []tileDelivery

	err     error
	errNode topology.NodeID

	// Internals tallies, accumulated in-worker (gated on tallyInternals)
	// and summed deterministically at run end.
	batches, batchNodes, maxBatch, batchSteps int64
	haloEx, haloWordsCopied                   int64
}

// buildTileStates sizes one tileState per tile for the given tiling and
// channel count.
func buildTileStates(tl *topology.Tiling, channels int) []tileState {
	tiles := make([]tileState, tl.Tiles())
	for t := range tiles {
		ts := &tiles[t]
		ts.nodes = tl.TileNodes(t)
		ts.words = tl.TileWords(t)
		ts.haloWords = tl.HaloWords(t)
		n := len(ts.nodes)
		ts.us = make([]topology.NodeID, n)
		ts.ks = make([]int, n)
		ts.dec = make([]radio.Action, n)
		ts.localTx = make([]uint64, channels*ts.words)
		ts.txOn = make([]int32, channels)
		ts.txTouched = make([]channel.ID, 0, 8)
		ts.rxU = make([]topology.NodeID, 0, n)
		ts.rxC = make([]channel.ID, 0, n)
		if len(tl.HaloTiles(t)) > 1 {
			ts.halo = make([]uint64, channels*ts.haloWords)
			ts.haloStamp = make([]int, channels)
			ts.haloLive = make([]bool, channels)
		}
	}
	return tiles
}

// resetTileStates re-zeroes the per-run state: an errored previous run may
// have returned mid-slot with live bits, counts and queues in place.
func resetTileStates(tiles []tileState) {
	for t := range tiles {
		ts := &tiles[t]
		copy(ts.us, ts.nodes) // uniform-start phase A reads us prefilled
		for i := range ts.localTx {
			ts.localTx[i] = 0
		}
		for i := range ts.txOn {
			ts.txOn[i] = 0
		}
		ts.txTouched = ts.txTouched[:0]
		ts.rxU, ts.rxC = ts.rxU[:0], ts.rxC[:0]
		for i := range ts.haloStamp {
			ts.haloStamp[i] = -1
			ts.haloLive[i] = false
		}
		ts.deliv = ts.deliv[:0]
		ts.err = nil
		ts.errNode = 0
		ts.batches, ts.batchNodes, ts.maxBatch, ts.batchSteps = 0, 0, 0, 0
		ts.haloEx, ts.haloWordsCopied = 0, 0
	}
}

// runSlot executes one slot: phase A (across the pool on a grid, inline on
// the single tile), the error sweep, the slot event, then phase B — across
// the pool followed by the sequential coverage apply on a grid, inline on
// the single tile, or the candidate scan in scalar mode.
//
//nd:hotpath
func (r *syncRun) runSlot(slot int) error {
	r.slot = slot
	r.ev.Time, r.ev.Slot = float64(slot), slot
	if r.pool != nil {
		r.pool.Run(len(r.tiles), r.fnA)
	} else {
		r.tileSlotA(0)
	}

	// Error sweep: the minimum failing node across tiles is the failure an
	// ascending scan of the whole network would have reported first.
	var firstErr error
	firstNode := topology.NodeID(-1)
	for t := range r.tiles {
		ts := &r.tiles[t]
		if ts.err != nil && (firstNode < 0 || ts.errNode < firstNode) {
			firstErr, firstNode = ts.err, ts.errNode
		}
	}
	if firstErr != nil {
		return firstErr
	}

	if r.wantSlot {
		r.obs.OnEvent(Event{
			Kind: EventSlot, Time: float64(slot), Slot: slot,
			Actions: r.actions,
		})
	}

	switch {
	case r.mode == modeScalar:
		r.resolveScalar()
	case r.pool == nil:
		r.tileSlotB(0)
	default:
		r.pool.Run(len(r.tiles), r.fnB)
		// Sequential apply: the coverage oracle is shared across tiles, so
		// it runs on the caller in ascending tile order. Within-slot order
		// is invisible in results — every delivery carries the same slot
		// stamp and each link is observed at most once per slot — so any
		// fixed order matches the single tile.
		for t := range r.tiles {
			ts := &r.tiles[t]
			for _, d := range ts.deliv {
				r.coverage.Observe(topology.Link{From: d.from, To: d.to}, float64(slot))
			}
		}
	}
	return nil
}

// tileSlotA is phase A for one tile: clear the tile's previous slot, pull
// its active nodes' decisions, validate, and scatter.
//
//nd:hotpath
func (r *syncRun) tileSlotA(ti int) {
	ts := &r.tiles[ti]
	slot := r.slot

	for _, c := range ts.txTouched {
		ts.txOn[c] = 0
		seg := ts.localTx[int(c)*ts.words : (int(c)+1)*ts.words]
		for i := range seg {
			seg[i] = 0
		}
	}
	ts.txTouched = ts.txTouched[:0]
	ts.rxU, ts.rxC = ts.rxU[:0], ts.rxC[:0]
	ts.deliv = ts.deliv[:0]
	ts.err = nil

	// Collect the tile's active nodes: dynamics activity with per-node
	// local-slot counters (a churned node's decision index pauses with
	// it), staggered starts, or — the fast path — every node at the global
	// slot, with us prefilled with the tile's nodes.
	us, ks := ts.us, ts.ks
	active, locals, startSlots := r.active, r.locals, r.startSlots
	nb := 0
	switch {
	case active != nil:
		for _, u := range ts.nodes {
			if !active[u] {
				r.actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			us[nb], ks[nb] = u, locals[u]
			locals[u]++
			nb++
		}
	case startSlots != nil:
		for _, u := range ts.nodes {
			start := startSlots[u]
			if slot < start {
				r.actions[u] = radio.Action{Mode: radio.Quiet}
				continue
			}
			us[nb], ks[nb] = u, slot-start
			nb++
		}
	default:
		nb = len(ts.nodes)
		for i := 0; i < nb; i++ {
			ks[i] = slot
		}
	}
	// A grid tile with no active node pulls nothing; the single tile pulls
	// (and tallies) one batch every slot, empty or not.
	if nb == 0 && r.mode == modeTiled {
		return
	}

	dec := ts.dec[:nb]
	if r.tallyInternals {
		ts.batches++
		ts.batchNodes += int64(nb)
		if int64(nb) > ts.maxBatch {
			ts.maxBatch = int64(nb)
		}
		if r.bst != nil {
			ts.batchSteps++
		}
	}
	if r.bst != nil {
		r.bst.NextBatch(us[:nb], ks[:nb], dec)
	} else {
		for i := 0; i < nb; i++ {
			dec[i] = r.st.Next(us[i], ks[i])
		}
	}

	for i := 0; i < nb; i++ {
		a := dec[i]
		u := us[i]
		switch a.Mode {
		case radio.Transmit:
			c := a.Channel
			if !r.tileValid(u, c) {
				ts.err = fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
				ts.errNode = u
				return
			}
			if ts.txOn[c] == 0 {
				ts.txTouched = append(ts.txTouched, c)
			}
			ts.txOn[c]++
			channel.SetBit(ts.localTx[int(c)*ts.words:(int(c)+1)*ts.words], r.tl.LocalIndex(u))
		case radio.Receive:
			c := a.Channel
			if !r.tileValid(u, c) {
				ts.err = fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
				ts.errNode = u
				return
			}
			ts.rxU = append(ts.rxU, u)
			ts.rxC = append(ts.rxC, c)
		case radio.Quiet:
		default:
			ts.err = fmt.Errorf("sim: node %d slot %d: %w", u, slot, a.Validate(r.nw.Avail(u)))
			ts.errNode = u
			return
		}
		if r.storeActions {
			r.actions[u] = a
		}
	}
}

// tileValid is phase A's fused membership check: a single word test when
// every channel ID fits one word (avail1), the set lookup otherwise. The
// full Validate runs only on the failure path, for its error message.
//
//nd:hotpath
func (r *syncRun) tileValid(u topology.NodeID, c channel.ID) bool {
	if r.avail1 != nil {
		return uint64(c) <= 63 && r.avail1[u]&(uint64(1)<<uint64(c)) != 0
	}
	return r.nw.Avail(u).Contains(c)
}

// tileSlotB is phase B for one tile: each listener, in ascending NodeID
// order, against the halo transmitter mask on its channel — one
// OverlapResolve loss-free, an ordered bit walk under loss.
//
//nd:hotpath
func (r *syncRun) tileSlotB(ti int) {
	ts := &r.tiles[ti]
	slot, masks, lossFree := r.slot, r.masks, r.lossFree
	own := ts.halo == nil // the tile is its own halo: read its own masks
	for i, uid := range ts.rxU {
		c := ts.rxC[i]
		var tx []uint64
		var live bool
		if own {
			tx, live = ts.localTx[int(c)*ts.words:(int(c)+1)*ts.words], ts.txOn[c] != 0
		} else {
			if ts.haloStamp[c] != slot {
				r.assembleHalo(ti, ts, c)
			}
			base := int(c) * ts.haloWords
			tx, live = ts.halo[base:base+ts.haloWords], ts.haloLive[c]
		}
		if !live {
			// Nobody within radio reach transmits on c: certain silence,
			// no draws.
			if r.wantIdle {
				r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
				r.obs.OnEvent(r.ev)
			}
			continue
		}
		row, lo := masks.Row(uid, c)
		if !lossFree {
			r.resolveLossy(ti, ts, uid, c, row, tx, lo)
			continue
		}
		count, first := channel.OverlapResolve(row, tx[lo:])
		switch count {
		case 1:
			r.deliver(ts, r.haloNode(ti, ts, lo<<6+first), uid, c)
		case 0:
			if r.wantIdle {
				r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
				r.obs.OnEvent(r.ev)
			}
		default:
			if r.wantColl {
				r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventCollision, r.haloNode(ti, ts, lo<<6+first), uid, c
				r.obs.OnEvent(r.ev)
			}
		}
	}
}

// haloNode maps a bit of tile ti's halo space to its node. A tile that is
// its own halo holds every node in ascending order, so there the halo space
// is the NodeID space.
//
//nd:hotpath
func (r *syncRun) haloNode(ti int, ts *tileState, bit int) topology.NodeID {
	if ts.halo == nil {
		return topology.NodeID(bit)
	}
	return r.tl.HaloNode(ti, bit)
}

// assembleHalo builds grid tile ti's halo transmitter mask on channel c
// for this slot, on the first listener on c: every neighborhood segment is
// fully written, copied or zeroed, so stale bits from earlier slots never
// survive, and haloLive records whether any transmitter within the halo is
// on c.
//
//nd:hotpath
func (r *syncRun) assembleHalo(ti int, ts *tileState, c channel.ID) {
	ts.haloStamp[c] = r.slot
	base := int(c) * ts.haloWords
	live := false
	hood := r.tl.HaloTiles(ti)
	segs := r.tl.HaloSegments(ti)
	for j, s := range hood {
		src := &r.tiles[s]
		dst := ts.halo[base+int(segs[j]) : base+int(segs[j+1])]
		if src.txOn[c] == 0 {
			for k := range dst {
				dst[k] = 0
			}
			continue
		}
		live = true
		copy(dst, src.localTx[int(c)*src.words:(int(c)+1)*src.words])
		if r.tallyInternals && int(s) != ti {
			ts.haloEx++
			ts.haloWordsCopied += int64(len(dst))
		}
	}
	ts.haloLive[c] = live
}

// resolveLossy resolves one lossy listener on the single tile: the live
// check already pruned certain silence without consuming any erasure
// draws, so walk the overlap of the candidate row with the transmitter
// mask in ascending candidate order, drawing exactly as the candidate scan
// would — one draw per candidate transmitting on the listener's channel
// over an operating link, stopping at the second surviving transmission.
//
//nd:hotpath
func (r *syncRun) resolveLossy(ti int, ts *tileState, uid topology.NodeID, c channel.ID, row, tx []uint64, lo int) {
	var sender, firstSender topology.NodeID
	senders := 0
scan:
	for i, w := range row {
		w &= tx[lo+i]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			// Unreliable channels: the transmission may fade at uid.
			if r.loss.erased() {
				continue
			}
			v := r.haloNode(ti, ts, (lo+i)<<6+b)
			if senders == 0 {
				firstSender = v
			}
			senders++
			sender = v
			if senders > 1 {
				break scan // collision; no need to scan further
			}
		}
	}
	if senders == 1 {
		r.deliver(ts, sender, uid, c)
		return
	}
	if senders == 0 {
		if r.wantIdle {
			r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventIdle, 0, uid, c
			r.obs.OnEvent(r.ev)
		}
	} else if r.wantColl {
		r.ev.Kind, r.ev.From, r.ev.To, r.ev.Channel = EventCollision, firstSender, uid, c
		r.obs.OnEvent(r.ev)
	}
}
