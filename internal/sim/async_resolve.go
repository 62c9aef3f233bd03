package sim

import (
	"math"
	"slices"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// delivery is one resolved clear reception.
type delivery struct {
	at       float64
	from, to topology.NodeID
	ch       channel.ID
}

// txSlot is one transmission slot overlapping the listening frame under
// resolution.
type txSlot struct {
	start, end float64
	from       topology.NodeID
}

// idxSlot is a txSlot carrying its collection-order index through the
// sort-by-start sweep, so sweep verdicts can be written back to
// collection-order flags.
type idxSlot struct {
	txSlot
	idx int32
}

// asyncEnv bundles the state the frame-reception resolver reads, plus the
// scratch buffers it reuses across frames (an env belongs to one run on one
// goroutine; resolveFrame is called once per listening frame, so per-frame
// allocations would dominate the engine's allocation profile).
type asyncEnv struct {
	nw            *topology.Network
	cands         [][]topology.Candidate // per listener: decodable transmitters
	world         *dynamics.World        // nil for static runs
	frames        [][]asyncFrame
	timelines     []*clock.Timeline
	slotsPerFrame int
	loss          *LossModel

	// Scratch buffers, reused across resolveFrame calls:
	txBuf    []txSlot   // collected candidate slots, in collection order
	sweepBuf []idxSlot  // the same slots, sorted by start for the sweep
	flagBuf  []bool     // per collected slot: overlapped by no other sender?
	outBuf   []delivery // resolved deliveries (returned; valid until next call)
	seenBuf  []bool     // per node: already delivered this frame (reset per frame)
	cursor   []int32    // per sender: its last frameLowerBound answer, the next hint

	// lastCollected is the number of candidate transmission slots the most
	// recent resolveFrame call collected (0 for non-listening frames) —
	// the engine's EventFrameResolve accounting.
	lastCollected int
}

// candsFor returns the candidate table row the resolver should use for
// listener uid's frame g: the static network table, or — for dynamic runs —
// the table of the epoch containing the frame's start. A listener inactive
// in that epoch has no candidates (and an inactive transmitter appears in
// no row), so churn gates reception in both directions through the table
// alone. Sampling at the frame start pins each frame to exactly one epoch;
// a transmission straddling the boundary counts iff the listening frame it
// lands in started while the link existed.
//
//nd:hotpath
func (env *asyncEnv) candsFor(uid topology.NodeID, g asyncFrame) []topology.Candidate {
	if env.world == nil {
		return env.cands[uid]
	}
	return env.world.At(env.world.EpochOf(g.start)).Cands[uid]
}

// resolveFrame computes the clear receptions of node u during its listening
// frame g:
//
//   - every transmission slot on g's channel from a neighbor that reaches u
//     and overlaps g is collected (erased slots are dropped when a loss
//     model is active);
//   - a collected slot that lies entirely within g is received iff no slot
//     from a different sender overlaps it (slots of the same sender never
//     overlap each other);
//   - at most one delivery per sender per frame is reported, at the end
//     time of the earliest clear slot.
//
// Collection finds each sender's overlapping frames from a per-sender
// cursor (see frameLowerBound), and the overlap test runs as a
// sort-by-start interval sweep (see clearFlags). The test-only reference,
// resolveFrameNaive, walks every frame and checks all pairs instead;
// differential tests pin the two to identical output, including loss-model
// draw order (all draws happen during collection, in the same order).
//
// Frames of neighbors must cover the real-time extent of g; RunAsync
// maintains this as its scheduling invariant. The returned slice is owned
// by the env and is invalidated by the next resolveFrame call.
//
//nd:hotpath
func (env *asyncEnv) resolveFrame(uid topology.NodeID, g asyncFrame) []delivery {
	env.lastCollected = 0
	if g.action.Mode != radio.Receive {
		return nil
	}
	slots := env.collectSlots(uid, g)
	env.lastCollected = len(slots)
	if len(slots) == 0 {
		return nil
	}
	flags := env.clearFlags(slots)

	// Length check, not nil check: a scratch-held env outlives one run and
	// the next network may be larger. Stale values don't matter — the loop
	// below resets exactly the entries the delivery pass reads.
	if len(env.seenBuf) < env.nw.N() {
		env.seenBuf = make([]bool, env.nw.N())
	}
	for _, s := range slots {
		env.seenBuf[s.from] = false
	}
	out := env.outBuf[:0]
	for i, cand := range slots {
		if env.seenBuf[cand.from] {
			continue
		}
		if cand.start < g.start || cand.end > g.end {
			continue // partially heard: cannot be decoded
		}
		if flags[i] {
			env.seenBuf[cand.from] = true
			out = append(out, delivery{at: cand.end, from: cand.from, to: uid, ch: g.action.Channel})
		}
	}
	env.outBuf = out
	return out
}

// collectSlots gathers, into the env's reused buffer, every transmission
// slot on g's channel from a neighbor that reaches uid and overlaps g.
// Collection order — ascending neighbor, then frame, then slot — is part of
// the reproducibility contract: the loss model consumes exactly one erasure
// draw per overlapping slot, in this order.
//
//nd:hotpath
func (env *asyncEnv) collectSlots(uid topology.NodeID, g asyncFrame) []txSlot {
	c := g.action.Channel
	slots := env.txBuf[:0]
	// Length check, as for seenBuf: stale hints are harmless, since
	// frameLowerBound is exact for any hint.
	if len(env.cursor) < env.nw.N() {
		env.cursor = make([]int32, env.nw.N())
	}
	// The candidate table walks the same ascending-neighbor order as
	// Neighbors(uid) with the Reaches and non-empty-span filters resolved up
	// front; both filters precede every loss draw, so the draw sequence is
	// unchanged (a neighbor with an empty span fails the Contains check
	// below before drawing anything).
	for _, cand := range env.candsFor(uid, g) {
		if !cand.Span.Contains(c) {
			continue
		}
		w := cand.From
		wf := env.frames[w]
		// First frame of w possibly overlapping g: the one before the
		// first frame starting at or after g.start.
		lb := frameLowerBound(wf, int(env.cursor[w]), g.start)
		env.cursor[w] = int32(lb)
		idx := lb
		if idx > 0 {
			idx--
		}
		for ; idx < len(wf); idx++ {
			fr := wf[idx]
			if fr.start >= g.end {
				break
			}
			if fr.end <= g.start {
				continue
			}
			if fr.action.Mode != radio.Transmit || fr.action.Channel != c {
				continue
			}
			for s := 0; s < env.slotsPerFrame; s++ {
				ss, se := env.timelines[w].FrameSlotInterval(idx, s)
				if se <= g.start || ss >= g.end {
					continue
				}
				// Unreliable channels: the slot may fade at u.
				if env.loss.erased() {
					continue
				}
				slots = append(slots, txSlot{start: ss, end: se, from: w})
			}
		}
	}
	env.txBuf = slots
	return slots
}

// frameLowerBound returns the first index i with fr[i].start >= x, or
// len(fr) if there is none, for frames sorted by strictly increasing start.
// It gallops out from hint in doubling steps, then bisects the bracketed
// range, so an answer d frames from the hint costs O(log d) probes. The
// result is exact for any hint, including negative or past-the-end ones.
// RunAsync resolves frames in global frame-end order, so a sender's next
// answer is almost always within a frame or two of its previous one.
//
//nd:hotpath
func frameLowerBound(fr []asyncFrame, hint int, x float64) int {
	hint = min(max(hint, 0), len(fr))
	// Invariant: fr[i].start < x for i < lo, and >= x for i >= hi.
	lo, hi := hint, hint
	if hint < len(fr) && fr[hint].start < x {
		lo, hi = hint+1, hint+1
		for step := 1; hi < len(fr) && fr[hi].start < x; step <<= 1 {
			lo = hi + 1
			hi += step
		}
		hi = min(hi, len(fr))
	} else {
		for step := 1; lo > 0 && fr[lo-1].start >= x; step <<= 1 {
			hi = lo - 1
			lo -= step
		}
		lo = max(lo, 0)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fr[mid].start < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cmpIdxSlotStart orders sweep slots by start time. Ties may sort either
// way: clearFlags' strict-inequality queries flag both members of an
// overlapping pair regardless of their relative order.
func cmpIdxSlotStart(a, b idxSlot) int {
	switch {
	case a.start < b.start:
		return -1
	case a.start > b.start:
		return 1
	default:
		return 0
	}
}

// clearFlags reports, for each collected slot, whether no slot of a
// different sender overlaps it ("overlaps" with strict inequalities:
// touching endpoints do not interfere). One sort plus two linear sweeps
// replace the naive all-pairs scan:
//
//   - sorted by start, a pair (i before j) overlaps iff i.end > j.start
//     (i.start ≤ j.start < j.end gives the other half for free, slot
//     intervals being never empty);
//   - the forward sweep flags j iff some earlier-sorted slot of a
//     different sender ends after j.start — a running max-end query;
//   - the backward sweep symmetrically flags i iff some later-sorted slot
//     of a different sender starts before i.end — a running min-start
//     query.
//
// Both queries exclude the probing slot's own sender with the two-leader
// trick: maxEnd1 is the best end seen with its sender lead1, maxEnd2 the
// best end among every other sender. The best end excluding sender f is
// then maxEnd1 when lead1 ≠ f, else maxEnd2. Whenever the lead changes,
// the old maxEnd1 — which dominates every earlier end and belongs to a
// different sender than the new lead — becomes maxEnd2, preserving the
// invariant. Results are written into the env's reused flag buffer,
// indexed by collection order.
//
//nd:hotpath
func (env *asyncEnv) clearFlags(slots []txSlot) []bool {
	k := len(slots)
	if cap(env.flagBuf) < k {
		env.flagBuf = make([]bool, k)
	}
	flags := env.flagBuf[:k]
	for i := range flags {
		flags[i] = true
	}
	if k < 2 {
		return flags
	}

	sorted := env.sweepBuf[:0]
	for i, s := range slots {
		sorted = append(sorted, idxSlot{txSlot: s, idx: int32(i)})
	}
	env.sweepBuf = sorted
	slices.SortFunc(sorted, cmpIdxSlotStart)

	// Forward sweep: overlaps with earlier-sorted slots. The -Inf
	// sentinels make the first queries vacuously false.
	const none = topology.NodeID(-1)
	lead1 := none
	maxEnd1 := math.Inf(-1)
	maxEnd2 := math.Inf(-1)
	for _, s := range sorted {
		other := maxEnd1
		if s.from == lead1 {
			other = maxEnd2
		}
		if other > s.start {
			flags[s.idx] = false
		}
		switch {
		case s.from == lead1:
			if s.end > maxEnd1 {
				maxEnd1 = s.end
			}
		case s.end > maxEnd1:
			maxEnd2 = maxEnd1
			lead1 = s.from
			maxEnd1 = s.end
		case s.end > maxEnd2:
			maxEnd2 = s.end
		}
	}

	// Backward sweep: overlaps with later-sorted slots.
	lead1 = none
	minStart1 := math.Inf(1)
	minStart2 := math.Inf(1)
	for i := len(sorted) - 1; i >= 0; i-- {
		s := sorted[i]
		other := minStart1
		if s.from == lead1 {
			other = minStart2
		}
		if other < s.end {
			flags[s.idx] = false
		}
		switch {
		case s.from == lead1:
			if s.start < minStart1 {
				minStart1 = s.start
			}
		case s.start < minStart1:
			minStart2 = minStart1
			lead1 = s.from
			minStart1 = s.start
		case s.start < minStart2:
			minStart2 = s.start
		}
	}
	return flags
}
