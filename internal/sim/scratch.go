package sim

import (
	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// SyncScratch holds the per-run state of RunSync for reuse across runs, so a
// worker executing thousands of trials stops rebuilding the same tables every
// trial. A scratch belongs to one goroutine at a time; runs borrow it for
// their whole duration. The zero value is not ready — use NewSyncScratch.
//
// Reuse is invisible in results: every buffer is either fully overwritten
// before it is read (actions, candidate tables) or re-zeroed on acquisition
// (the per-tile transmitter masks and counts), and no scratch state feeds an
// rng draw. The derived network tables (inbound candidates, shared message
// availability sets, the single tile and its masks) are cached keyed by
// network pointer; a caller that mutates a network in place between runs
// must call Reset (or use a fresh scratch) so the tables are rebuilt.
type SyncScratch struct {
	nwKey    *topology.Network
	cands    [][]topology.Candidate
	msgAvail []channel.Set
	links    []topology.Link
	channels int // max channel ID + 1 over the network's universe

	// single is the implicit single tile over the whole network, the
	// resolver of every run without a usable caller grid; its tile state
	// is built on first use.
	single tileSet
	// grid is the caller tiling's state, cached keyed by (network,
	// tiling) pair.
	gridNW *topology.Network
	grid   tileSet

	actions []radio.Action
	avail1  []uint64
	hrs     []HeardReporter
	locals  []int
}

// tileSet is one tiling's resolver state: the tiling, its halo-local
// candidate masks, and the per-tile scratch (see sync_tiled.go).
type tileSet struct {
	tl    *topology.Tiling
	masks *topology.TileMasks
	tiles []tileState
}

// syncMaskWordBudget caps the single tile's packed candidate-mask table at
// 8 MB; larger networks without a caller grid stay on the scalar resolver
// (a caller grid is the path to large n, not a giant single-tile table).
const syncMaskWordBudget = 1 << 20

// NewSyncScratch returns an empty scratch ready for use.
func NewSyncScratch() *SyncScratch {
	return &SyncScratch{}
}

// Reset invalidates the network-derived caches. Buffer capacity is kept.
func (sc *SyncScratch) Reset() {
	sc.nwKey = nil
	sc.cands = nil
	sc.msgAvail = nil
	sc.links = nil
	sc.channels = 0
	sc.single = tileSet{}
	sc.gridNW = nil
	sc.grid = tileSet{}
}

// networkTables returns the network-derived tables — the inbound-candidate
// table, the shared message availability sets and the discoverable-link
// target — rebuilding them, the channel count and the single tile's tiling
// and masks (nil over the word budget or without channels; the run falls
// back to the scalar resolver) only when the network changed since the
// last run. hit reports whether the cached tables were reused (the
// engine-internals scratch hit/miss counter).
func (sc *SyncScratch) networkTables(nw *topology.Network) (_ [][]topology.Candidate, _ []channel.Set, _ []topology.Link, hit bool) {
	hit = sc.nwKey == nw
	if !hit {
		sc.nwKey = nw
		sc.cands = nw.InboundCandidates()
		sc.msgAvail = sharedMsgAvail(nw)
		sc.channels = 0
		if id, ok := nw.Universe().Max(); ok {
			sc.channels = int(id) + 1
		}
		sc.single = tileSet{}
		sc.single.tl, _ = topology.NewTiling(nw, 1, 1) // never fails on a 1×1 grid
		sc.single.masks = topology.NewTileMasks(sc.single.tl, sc.cands, sc.channels, syncMaskWordBudget)
		sc.links = nw.DiscoverableLinks()
	}
	return sc.cands, sc.msgAvail, sc.links, hit
}

// singleTile returns the implicit single tile of the network last passed
// to networkTables, its tile state built on first use and re-zeroed for
// the run.
func (sc *SyncScratch) singleTile() tileSet {
	if sc.single.tiles == nil {
		sc.single.tiles = buildTileStates(sc.single.tl, sc.channels)
	}
	resetTileStates(sc.single.tiles)
	return sc.single
}

// syncTileMaskWordBudget returns a caller grid's packed-mask budget: the
// single-tile budget, scaled linearly past it — a listener's halo-local
// row spans at most its 3×3 halo (a constant for radius-matched tilings),
// so the packed table is O(n) by construction and a linear budget admits
// every well-tiled network while still refusing a pathological blowup.
func syncTileMaskWordBudget(n int) int {
	if scaled := 128 * n; scaled > syncMaskWordBudget {
		return scaled
	}
	return syncMaskWordBudget
}

// gridTiles returns the caller grid's masks and per-tile scratch for the
// (network, tiling) pair, rebuilding on a key change and re-zeroing the
// per-run state either way. A zero tileSet (nil masks: halo violation —
// the tiling is finer than the network's reach — budget overrun, no
// channels, or no candidates at all) disables the grid for the run; the
// caller falls back to the single tile.
func (sc *SyncScratch) gridTiles(nw *topology.Network, tl *topology.Tiling, cands [][]topology.Candidate) tileSet {
	if sc.gridNW != nw || sc.grid.tl != tl {
		sc.gridNW = nw
		sc.grid = tileSet{tl: tl}
		m := topology.NewTileMasks(tl, cands, sc.channels, syncTileMaskWordBudget(tl.N()))
		if m != nil && m.PackedWords() > 0 {
			sc.grid.masks = m
			sc.grid.tiles = buildTileStates(tl, sc.channels)
		}
	}
	if sc.grid.masks == nil {
		return tileSet{}
	}
	resetTileStates(sc.grid.tiles)
	return sc.grid
}

// actionBuf returns the per-node action buffer, grown to n. Entries are
// fully overwritten each slot before being read.
func (sc *SyncScratch) actionBuf(n int) []radio.Action {
	if cap(sc.actions) < n {
		sc.actions = make([]radio.Action, n)
	}
	return sc.actions[:n]
}

// availBuf returns the per-node single-word availability mask buffer,
// reusing scratch capacity; the caller refills the contents every run.
func (sc *SyncScratch) availBuf(n int) []uint64 {
	if cap(sc.avail1) < n {
		sc.avail1 = make([]uint64, n)
	}
	return sc.avail1[:n]
}

// heardBuf returns the per-run heard-reporter cache, fully overwritten by
// the run's setup.
func (sc *SyncScratch) heardBuf(n int) []HeardReporter {
	if cap(sc.hrs) < n {
		sc.hrs = make([]HeardReporter, n)
	}
	return sc.hrs[:n]
}

// localSlotBuf returns the per-node local-slot counters of a dynamic run,
// zeroed: a node's decision index is its count of active slots so far, and
// every run starts that count at zero.
func (sc *SyncScratch) localSlotBuf(n int) []int {
	if cap(sc.locals) < n {
		sc.locals = make([]int, n)
	}
	locals := sc.locals[:n]
	for i := range locals {
		locals[i] = 0
	}
	return locals
}

// AsyncScratch holds the per-run state of RunAsync for reuse across runs:
// the per-node frame tables, the frame queue, the reception resolver's
// buffers, and (opt-in) the clock timelines and drift memos. A scratch
// belongs to one goroutine at a time; runs borrow it for their whole
// duration. The zero value is not ready — use NewAsyncScratch.
//
// Reuse is invisible in results: frame tables are re-sliced empty and
// appended to as frames generate, the queue is fully overwritten when the
// run primes it, resolver buffers already carried per-frame reuse
// semantics within a run, and no scratch state feeds an rng draw. The
// derived network tables are cached keyed by network pointer; a caller
// that mutates a network in place between runs must call Reset (or use a
// fresh scratch).
type AsyncScratch struct {
	// RecycleTimelines additionally pools the per-node clock.Timeline
	// objects, resetting them in place each run instead of allocating fresh
	// ones, and the drift processes' rate-memo backing arrays. Timelines
	// escape the engine through AsyncResult.Timelines, so this is safe
	// only when the caller does not use a result's Timelines
	// (FullFrames, MinFullFrames, drift audits) after starting the next run
	// with the same scratch. Paths that audit timelines after a whole batch
	// (e.g. harness.AsyncConfigs consumers) must leave this off.
	RecycleTimelines bool

	nwKey    *topology.Network
	cands    [][]topology.Candidate
	msgAvail []channel.Set

	timelines []*clock.Timeline
	rateBufs  [][]float64
	frames    [][]asyncFrame
	queue     []frameKey
	env       asyncEnv
}

// NewAsyncScratch returns an empty scratch ready for use.
func NewAsyncScratch() *AsyncScratch {
	return &AsyncScratch{}
}

// Reset invalidates the network-derived caches. Buffer capacity is kept.
func (sc *AsyncScratch) Reset() {
	sc.nwKey = nil
	sc.cands = nil
	sc.msgAvail = nil
}

// networkTables mirrors SyncScratch.networkTables.
func (sc *AsyncScratch) networkTables(nw *topology.Network) ([][]topology.Candidate, []channel.Set) {
	if sc.nwKey != nw {
		sc.nwKey = nw
		sc.cands = nw.InboundCandidates()
		sc.msgAvail = sharedMsgAvail(nw)
	}
	return sc.cands, sc.msgAvail
}

// timelineFor returns the timeline for node u initialized with the given
// parameters. With RecycleTimelines it resets a pooled timeline in place;
// otherwise it allocates fresh (the object escapes through the result).
func (sc *AsyncScratch) timelineFor(u int, start, frameLen float64, slotsPerFrame int, drift clock.DriftProcess) (*clock.Timeline, error) {
	if !sc.RecycleTimelines {
		return clock.NewTimeline(start, frameLen, slotsPerFrame, drift)
	}
	for len(sc.timelines) <= u {
		sc.timelines = append(sc.timelines, nil)
	}
	if tl := sc.timelines[u]; tl != nil {
		if err := tl.Reset(start, frameLen, slotsPerFrame, drift); err != nil {
			return nil, err
		}
		return tl, nil
	}
	tl, err := clock.NewTimeline(start, frameLen, slotsPerFrame, drift)
	if err != nil {
		return nil, err
	}
	sc.timelines[u] = tl
	return tl, nil
}

// timelineSlice returns the n-length timeline slice handed to the result.
// With RecycleTimelines the slice itself is pooled too; otherwise it is
// fresh, since AsyncResult.Timelines escapes.
func (sc *AsyncScratch) timelineSlice(n int) []*clock.Timeline {
	if !sc.RecycleTimelines {
		return make([]*clock.Timeline, n)
	}
	for len(sc.timelines) < n {
		sc.timelines = append(sc.timelines, nil)
	}
	return sc.timelines[:n]
}

// frameTables returns the per-node frame tables, each re-sliced empty
// with capacity for maxFrames entries.
func (sc *AsyncScratch) frameTables(n, maxFrames int) [][]asyncFrame {
	if cap(sc.frames) < n {
		fr := make([][]asyncFrame, n)
		copy(fr, sc.frames)
		sc.frames = fr
	}
	sc.frames = sc.frames[:n]
	for u := 0; u < n; u++ {
		if cap(sc.frames[u]) < maxFrames {
			sc.frames[u] = make([]asyncFrame, maxFrames)
		}
		sc.frames[u] = sc.frames[u][:0]
	}
	return sc.frames
}

// frameQueue returns the engine's frame-queue buffer, grown to n entries;
// the engine overwrites every entry when it primes the queue.
func (sc *AsyncScratch) frameQueue(n int) []frameKey {
	if cap(sc.queue) < n {
		sc.queue = make([]frameKey, n)
	}
	return sc.queue[:n]
}

// envFor primes the embedded resolver env for a run. The env's internal
// buffers (txBuf, sweepBuf, flagBuf, outBuf, seenBuf, cursor) persist across
// runs by design: resolveFrame already reuses them frame-to-frame and
// overwrites before reading, and a stale cursor hint is still exact.
func (sc *AsyncScratch) envFor(nw *topology.Network, cands [][]topology.Candidate, frames [][]asyncFrame, timelines []*clock.Timeline, slotsPerFrame int, loss *LossModel) *asyncEnv {
	env := &sc.env
	env.nw = nw
	env.cands = cands
	env.frames = frames
	env.timelines = timelines
	env.slotsPerFrame = slotsPerFrame
	env.loss = loss
	env.world = nil // RunAsync sets it for dynamic runs
	env.lastCollected = 0
	return env
}

// slotReserver is implemented by drift processes that can pre-size their
// per-slot memo (clock.RandomWalk). Engines that know the frame budget use
// it to avoid append-doubling churn in the rate memo; reserving never
// changes the rates returned.
type slotReserver interface {
	ReserveSlots(n int)
}

func reserveDrift(d clock.DriftProcess, slots int) {
	if r, ok := d.(slotReserver); ok {
		r.ReserveSlots(slots)
	}
}

// rateBufPooler is implemented by drift processes (clock.RandomWalk) whose
// rate-memo backing array can be recycled across trials. Adopting changes
// capacity only, never values; releasing leaves the process unqueryable, so
// the pool operates only under the RecycleTimelines contract (the caller
// never touches a prior run's drifts once the next run starts).
type rateBufPooler interface {
	AdoptRateBuf(buf []float64)
	ReleaseRateBuf() []float64
}

// adoptRateBuf seeds a fresh trial's drift with a pooled backing array.
//
//nd:scratch-owner reclaimRateBufs releases every adopted buffer at run end
func (sc *AsyncScratch) adoptRateBuf(d clock.DriftProcess) {
	p, ok := d.(rateBufPooler)
	if !ok {
		return
	}
	if n := len(sc.rateBufs); n > 0 {
		buf := sc.rateBufs[n-1]
		sc.rateBufs[n-1] = nil
		sc.rateBufs = sc.rateBufs[:n-1]
		p.AdoptRateBuf(buf)
	}
}

// reclaimRateBufs takes every node drift's rate buffer back into the pool
// at the end of a run. A drift shared between nodes releases once (later
// releases return nil); nil or tiny buffers are dropped.
func (sc *AsyncScratch) reclaimRateBufs(nodes []AsyncNode) {
	for i := range nodes {
		p, ok := nodes[i].Drift.(rateBufPooler)
		if !ok {
			continue
		}
		if buf := p.ReleaseRateBuf(); cap(buf) > 0 {
			sc.rateBufs = append(sc.rateBufs, buf)
		}
	}
}
