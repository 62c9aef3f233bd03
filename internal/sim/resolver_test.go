package sim

// Differential and regression tests for the optimized reception resolvers.
//
// Two properties are pinned here on top of the scripted differential suites
// in differential_test.go / differential_async_test.go:
//
//  1. Loss-model draw order. The erasure RNG is consumed mid-resolution, so
//     an "equivalent" resolver that filters candidates in a different order,
//     drops the collision early-break, or draws before the span check would
//     produce different runs at the same seed. resolveSlotNaive restates the
//     synchronous contract from first principles (the Phase-2 comment in
//     sync.go points here); resolveFrameNaive is the asynchronous reference.
//     Both are replayed against the production paths with identically seeded
//     loss models.
//
//  2. Steady-state allocation freedom. The resolvers reuse env-owned
//     buffers and share per-sender message sets; AllocsPerRun guards keep
//     per-slot / per-frame / per-delivery allocations from creeping back.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"m2hew/internal/clock"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// resolveSlotNaive restates the synchronous engine's Phase-2 reception rule
// for one slot from first principles, including the loss draw contract:
// exactly one erasure draw per neighbor that transmits on the listener's
// channel over an operating link, consumed in ascending neighbor order,
// stopping at the second surviving transmission (a collision needs no
// further evidence). RunSync must behave as if it executed this loop, even
// though it actually walks a precomputed candidate table behind a per-slot
// channel-occupancy index.
func resolveSlotNaive(nw *topology.Network, slot int, actions []radio.Action, loss *LossModel) []refDelivery {
	var out []refDelivery
	for u := 0; u < nw.N(); u++ {
		if actions[u].Mode != radio.Receive {
			continue
		}
		uid := topology.NodeID(u)
		c := actions[u].Channel
		var sender topology.NodeID
		senders := 0
		for _, v := range nw.Neighbors(uid) {
			if actions[v].Mode != radio.Transmit || actions[v].Channel != c {
				continue
			}
			if !nw.Reaches(v, uid) || !nw.Span(uid, v).Contains(c) {
				continue
			}
			if loss.erased() {
				continue
			}
			senders++
			sender = v
			if senders > 1 {
				break
			}
		}
		if senders == 1 {
			out = append(out, refDelivery{slot: slot, from: sender, to: uid})
		}
	}
	return out
}

// replaySyncLoss plays a fixed action script through RunSync with a loss
// model and collects the engine's deliveries.
func replaySyncLoss(t *testing.T, nw *topology.Network, script [][]radio.Action, loss *LossModel) []refDelivery {
	t.Helper()
	n := nw.N()
	protos := make([]SyncProtocol, n)
	for u := 0; u < n; u++ {
		actions := make([]radio.Action, len(script))
		for slot := range script {
			actions[slot] = script[slot][u]
		}
		protos[u] = &scriptSync{actions: actions}
	}
	var got []refDelivery
	_, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      len(script),
		RunToMaxSlots: true,
		Loss:          loss,
		Observer: ObserverFunc(func(e Event) {
			if e.Kind == EventDeliver {
				got = append(got, refDelivery{slot: e.Slot, from: e.From, to: e.To})
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSyncLossDrawOrderLocked replays random lossy scenarios through both
// RunSync and resolveSlotNaive with identically seeded erasure RNGs. Any
// change to the engine's draw consumption — order, count, or the early
// break at the second surviving sender — desynchronizes the two streams and
// diverges on some scenario.
func TestSyncLossDrawOrderLocked(t *testing.T) {
	root := rng.New(20260805)
	for trial := 0; trial < 120; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script := randomScenario(t, r)
			prob := 0.1 + r.Float64()*0.6
			lossSeed := r.Uint64()

			engineLoss, err := NewLossModel(prob, rng.New(lossSeed))
			if err != nil {
				t.Fatal(err)
			}
			got := replaySyncLoss(t, nw, script, engineLoss)

			naiveLoss, err := NewLossModel(prob, rng.New(lossSeed))
			if err != nil {
				t.Fatal(err)
			}
			var want []refDelivery
			for slot, actions := range script {
				want = append(want, resolveSlotNaive(nw, slot, actions, naiveLoss)...)
			}

			if len(got) != len(want) {
				t.Fatalf("engine delivered %d, naive %d\nengine: %v\nnaive: %v",
					len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: engine %+v, naive %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// scriptedAsyncEnv builds an asyncEnv from per-node frame scripts on the
// scratch's embedded env, the way the engines do, so resolver tests can
// drive resolveFrame without a full engine run. A scratch that already
// resolved frames carries its buffers and cursor hints over, as across
// engine runs.
func scriptedAsyncEnv(t *testing.T, sc *AsyncScratch, nw *topology.Network, script [][]radio.Action,
	starts []float64, frameLen float64, slotsPerFrame int, loss *LossModel) *asyncEnv {
	t.Helper()
	n := nw.N()
	frames := make([][]asyncFrame, n)
	timelines := make([]*clock.Timeline, n)
	for u := 0; u < n; u++ {
		tl, err := clock.NewTimeline(starts[u], frameLen, slotsPerFrame, nil)
		if err != nil {
			t.Fatal(err)
		}
		timelines[u] = tl
		frames[u] = make([]asyncFrame, len(script[u]))
		for f, a := range script[u] {
			fs, fe := tl.FrameInterval(f)
			frames[u][f] = asyncFrame{start: fs, end: fe, action: a}
		}
	}
	return sc.envFor(nw, nw.InboundCandidates(), frames, timelines, slotsPerFrame, loss)
}

// resolveFrameNaive is the reference resolver: the pre-optimization
// quadratic clear-check, allocating fresh state per frame, over its own
// slot collection that walks every frame of each candidate instead of
// searching for the overlapping ones. Filters and loss draws happen in the
// production collection order (ascending candidate, then frame, then
// slot), so the two resolvers consume identical draw sequences.
func (env *asyncEnv) resolveFrameNaive(uid topology.NodeID, g asyncFrame) []delivery {
	if g.action.Mode != radio.Receive {
		return nil
	}
	c := g.action.Channel
	var slots []txSlot
	for _, cand := range env.candsFor(uid, g) {
		if !cand.Span.Contains(c) {
			continue
		}
		w := cand.From
		for f, fr := range env.frames[w] {
			if fr.end <= g.start || fr.start >= g.end {
				continue
			}
			if fr.action.Mode != radio.Transmit || fr.action.Channel != c {
				continue
			}
			for s := 0; s < env.slotsPerFrame; s++ {
				ss, se := env.timelines[w].FrameSlotInterval(f, s)
				if se <= g.start || ss >= g.end {
					continue
				}
				if env.loss.erased() {
					continue
				}
				slots = append(slots, txSlot{start: ss, end: se, from: w})
			}
		}
	}
	var out []delivery
	delivered := make(map[topology.NodeID]bool)
	for i, cand := range slots {
		if delivered[cand.from] {
			continue
		}
		if cand.start < g.start || cand.end > g.end {
			continue // partially heard: cannot be decoded
		}
		clear := true
		for j, other := range slots {
			if i == j || other.from == cand.from {
				continue
			}
			if other.start < cand.end && cand.start < other.end {
				clear = false
				break
			}
		}
		if clear {
			delivered[cand.from] = true
			out = append(out, delivery{at: cand.end, from: cand.from, to: uid, ch: g.action.Channel})
		}
	}
	return out
}

// randomAsyncScript builds a random network plus per-node frame scripts and
// start offsets for resolver-level tests. Node and frame counts are
// multiplied by scale.
func randomAsyncScript(t *testing.T, r *rng.Source, scale int) (*topology.Network, [][]radio.Action, []float64, float64, int) {
	t.Helper()
	n := scale * (r.IntN(5) + 2)
	universe := r.IntN(3) + 1
	nw, err := topology.ErdosRenyi(n, 0.6, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignBernoulli(nw, universe, 0.7, r); err != nil {
		t.Fatal(err)
	}
	if r.Bernoulli(0.4) {
		if err := topology.DropRandomDirections(nw, 0.5, r); err != nil {
			t.Fatal(err)
		}
	}
	slotsPerFrame := r.IntN(3) + 1
	frames := scale * (r.IntN(16) + 4)
	frameLen := 1 + r.Float64()*4
	script := make([][]radio.Action, n)
	starts := make([]float64, n)
	for u := 0; u < n; u++ {
		avail := nw.Avail(topology.NodeID(u))
		script[u] = make([]radio.Action, frames)
		for f := 0; f < frames; f++ {
			switch r.IntN(5) {
			case 0:
				script[u][f] = radio.Action{Mode: radio.Quiet}
			case 1, 2:
				c, err := avail.Pick(r)
				if err != nil {
					t.Fatal(err)
				}
				script[u][f] = radio.Action{Mode: radio.Transmit, Channel: c}
			default:
				c, err := avail.Pick(r)
				if err != nil {
					t.Fatal(err)
				}
				script[u][f] = radio.Action{Mode: radio.Receive, Channel: c}
			}
		}
		starts[u] = r.Float64() * 3 * frameLen
	}
	return nw, script, starts, frameLen, slotsPerFrame
}

// TestResolveFrameMatchesNaive pins the sweep-based resolveFrame to the
// quadratic resolveFrameNaive over random scenarios, with and without a
// loss model. The two envs carry identically seeded erasure RNGs and
// resolve frames in the same order, so any divergence — deliveries, frame
// lookup or draw consumption — surfaces as a mismatch. The fast env first
// resolves a larger network on the same scratch, so its cursor hints start
// stale and often past the end; half the scenarios resolve in shuffled
// order, so the cursor gallops backwards as well as forwards.
func TestResolveFrameMatchesNaive(t *testing.T) {
	root := rng.New(80520260)
	for trial := 0; trial < 120; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			nw, script, starts, frameLen, slotsPerFrame := randomAsyncScript(t, r, 1)

			var fastLoss, naiveLoss *LossModel
			if r.Bernoulli(0.6) {
				prob := 0.1 + r.Float64()*0.6
				lossSeed := r.Uint64()
				var err error
				if fastLoss, err = NewLossModel(prob, rng.New(lossSeed)); err != nil {
					t.Fatal(err)
				}
				if naiveLoss, err = NewLossModel(prob, rng.New(lossSeed)); err != nil {
					t.Fatal(err)
				}
			}

			fastSc := NewAsyncScratch()
			bigNw, bigScript, bigStarts, bigFrameLen, bigSlots := randomAsyncScript(t, r, 4)
			big := scriptedAsyncEnv(t, fastSc, bigNw, bigScript, bigStarts, bigFrameLen, bigSlots, nil)
			for u := range bigScript {
				for _, g := range big.frames[u] {
					big.resolveFrame(topology.NodeID(u), g)
				}
			}
			fast := scriptedAsyncEnv(t, fastSc, nw, script, starts, frameLen, slotsPerFrame, fastLoss)
			naive := scriptedAsyncEnv(t, NewAsyncScratch(), nw, script, starts, frameLen, slotsPerFrame, naiveLoss)

			type frameRef struct{ u, f int }
			var order []frameRef
			for u := range script {
				for f := range script[u] {
					order = append(order, frameRef{u, f})
				}
			}
			if r.Bernoulli(0.5) {
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			for _, ref := range order {
				u, f := ref.u, ref.f
				uid := topology.NodeID(u)
				got := fast.resolveFrame(uid, fast.frames[u][f])
				want := naive.resolveFrameNaive(uid, naive.frames[u][f])
				if len(got) != len(want) {
					t.Fatalf("node %d frame %d: fast %d deliveries, naive %d\nfast: %v\nnaive: %v",
						u, f, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("node %d frame %d delivery %d: fast %+v, naive %+v",
							u, f, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestResolveFrameSteadyStateNoAllocs verifies that once the env's scratch
// buffers have grown to the scenario's working set, resolveFrame allocates
// nothing at all — the property that removed per-frame garbage from the
// asynchronous engines.
func TestResolveFrameSteadyStateNoAllocs(t *testing.T) {
	r := rng.New(99)
	nw, err := topology.GeometricConnected(12, 0.6, r, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 4, 2, r); err != nil {
		t.Fatal(err)
	}
	script := make([][]radio.Action, nw.N())
	starts := make([]float64, nw.N())
	for u := 0; u < nw.N(); u++ {
		avail := nw.Avail(topology.NodeID(u))
		script[u] = make([]radio.Action, 40)
		for f := range script[u] {
			c, err := avail.Pick(r)
			if err != nil {
				t.Fatal(err)
			}
			mode := radio.Receive
			if r.Bernoulli(0.5) {
				mode = radio.Transmit
			}
			script[u][f] = radio.Action{Mode: mode, Channel: c}
		}
		starts[u] = r.Float64() * 2
	}
	env := scriptedAsyncEnv(t, NewAsyncScratch(), nw, script, starts, 1.5, 3, nil)

	resolveAll := func() {
		for u := 0; u < nw.N(); u++ {
			uid := topology.NodeID(u)
			for f := range script[u] {
				env.resolveFrame(uid, env.frames[u][f])
			}
		}
	}
	resolveAll() // warm up the scratch buffers
	if allocs := testing.AllocsPerRun(10, resolveAll); allocs > 0 {
		t.Errorf("resolveFrame allocated %.0f objects per full pass at steady state", allocs)
	}
}

// sinkSync repeats one action forever and counts deliveries without
// retaining them, so alloc guards can exercise the delivery path itself.
type sinkSync struct {
	act       radio.Action
	delivered int
}

func (s *sinkSync) Step(int) radio.Action   { return s.act }
func (s *sinkSync) Deliver(_ radio.Message) { s.delivered++ }

// TestSyncDeliveryPathNoAllocs drives a run where deliveries happen every
// slot and checks that the engine performs only its fixed per-run setup
// allocations: message available sets are shared per sender, not cloned per
// delivery, and repeat receptions leave the protocol tables untouched. One
// hidden per-delivery allocation would multiply by ~768 deliveries and blow
// the budget. (TestSyncNilObserverNoAllocs covers the all-transmit slot
// loop; this test covers the reception path.)
func TestSyncDeliveryPathNoAllocs(t *testing.T) {
	nw, err := topology.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	protos := make([]SyncProtocol, 4)
	sinks := make([]*sinkSync, 4)
	for u := range protos {
		act := radio.Action{Mode: radio.Receive, Channel: 0}
		if u == 0 {
			act = radio.Action{Mode: radio.Transmit, Channel: 0}
		}
		sinks[u] = &sinkSync{act: act}
		protos[u] = sinks[u]
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      256,
			RunToMaxSlots: true,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if sinks[1].delivered == 0 {
		t.Fatal("scenario produced no deliveries; the guard tests nothing")
	}
	if allocs > 100 {
		t.Errorf("RunSync delivery path allocated %.0f objects per run", allocs)
	}
}

// FuzzFrameLowerBound checks the cursor search against sort.Search. Each
// gap byte adds (b+1)/4 to the previous frame start, so starts are strictly
// increasing and quarter-valued queries land on them exactly; the hint is
// unrestricted, negative and past-the-end values included. NaN queries are
// outside the contract (frame times are always finite) and are skipped.
func FuzzFrameLowerBound(f *testing.F) {
	f.Add([]byte{}, 0, 1.0)
	f.Add([]byte{0, 1, 2, 3}, 2, 1.5)
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3}, -7, 100.0)
	f.Fuzz(func(t *testing.T, gaps []byte, hint int, x float64) {
		if math.IsNaN(x) {
			return
		}
		fr := make([]asyncFrame, len(gaps))
		start := 0.0
		for i, b := range gaps {
			start += (float64(b) + 1) / 4
			fr[i] = asyncFrame{start: start, end: start + 1}
		}
		want := sort.Search(len(fr), func(i int) bool { return fr[i].start >= x })
		if got := frameLowerBound(fr, hint, x); got != want {
			t.Fatalf("frameLowerBound(%d starts, hint %d, %v) = %d, want %d", len(fr), hint, x, got, want)
		}
	})
}
