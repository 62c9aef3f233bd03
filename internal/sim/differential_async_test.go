package sim

// Differential testing of the asynchronous engine against a brute-force
// interval resolver: for each listening frame the reference scans every
// transmission slot of every node in the whole run (no frame queue, no
// cursor, no sweep) and applies the containment and overlap rules
// verbatim. Divergence pinpoints indexing, search-window or scheduling
// bugs in the engine.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/dynamics"
	"m2hew/internal/metrics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// asyncRefDelivery is one reception per the reference resolver: sender,
// receiver, the receiver's listening frame, and the end time of the
// earliest clear slot.
type asyncRefDelivery struct {
	from, to topology.NodeID
	frame    int
	at       float64
}

// referenceResolveAsync recomputes all receptions of a scripted async run,
// in the engine's delivery order: listening frames by ascending (end time,
// listener), each frame's deliveries by ascending sender. With a world,
// each listening frame resolves against the candidate table of the epoch
// containing its start; without one, against the static network.
func referenceResolveAsync(
	nw *topology.Network,
	world *dynamics.World,
	script [][]radio.Action,
	timelines []*clock.Timeline,
	slotsPerFrame int,
) []asyncRefDelivery {
	type interval struct {
		start, end float64
		from       topology.NodeID
		ch         channel.ID
	}
	// reaches reports whether a transmission from `from` on ch can arrive
	// at listener `to` during a frame starting at gs.
	reaches := func(from, to topology.NodeID, gs float64, ch channel.ID) bool {
		if world == nil {
			return nw.Reaches(from, to) && nw.Span(to, from).Contains(ch)
		}
		for _, c := range world.At(world.EpochOf(gs)).Cands[to] {
			if c.From == from {
				return c.Span.Contains(ch)
			}
		}
		return false
	}
	// Enumerate every transmission slot in the run.
	var txs []interval
	for u := 0; u < nw.N(); u++ {
		for f, a := range script[u] {
			if a.Mode != radio.Transmit {
				continue
			}
			for s := 0; s < slotsPerFrame; s++ {
				ss, se := timelines[u].FrameSlotInterval(f, s)
				txs = append(txs, interval{start: ss, end: se, from: topology.NodeID(u), ch: a.Channel})
			}
		}
	}
	type frameOut struct {
		end float64
		to  topology.NodeID
		ds  []asyncRefDelivery
	}
	var frames []frameOut
	for u := 0; u < nw.N(); u++ {
		uid := topology.NodeID(u)
		for f, a := range script[u] {
			if a.Mode != radio.Receive {
				continue
			}
			gs, ge := timelines[u].FrameInterval(f)
			// Transmissions that arrive at u on its channel and overlap the
			// frame.
			var arriving []interval
			for _, tx := range txs {
				if tx.from == uid || tx.ch != a.Channel {
					continue
				}
				if tx.end <= gs || tx.start >= ge {
					continue
				}
				if !reaches(tx.from, uid, gs, a.Channel) {
					continue
				}
				arriving = append(arriving, tx)
			}
			// Earliest clear contained slot per sender.
			best := make(map[topology.NodeID]float64)
			for i, cand := range arriving {
				if cand.start < gs || cand.end > ge {
					continue
				}
				clear := true
				for j, other := range arriving {
					if i == j || other.from == cand.from {
						continue
					}
					if other.start < cand.end && cand.start < other.end {
						clear = false
						break
					}
				}
				if !clear {
					continue
				}
				if prev, ok := best[cand.from]; !ok || cand.end < prev {
					best[cand.from] = cand.end
				}
			}
			var ds []asyncRefDelivery
			for from, at := range best {
				ds = append(ds, asyncRefDelivery{from: from, to: uid, frame: f, at: at})
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i].from < ds[j].from })
			frames = append(frames, frameOut{end: ge, to: uid, ds: ds})
		}
	}
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].end != frames[j].end {
			return frames[i].end < frames[j].end
		}
		return frames[i].to < frames[j].to
	})
	var out []asyncRefDelivery
	for _, fo := range frames {
		out = append(out, fo.ds...)
	}
	return out
}

// referenceForNodes runs the reference on a twin of an engine run's nodes:
// the twin's protocols supply the decisions (pre-generated over the frame
// budget) and its drift processes the clocks, so a twin built from the
// same seeds replays exactly what the engine saw.
func referenceForNodes(t *testing.T, nw *topology.Network, world *dynamics.World, twin []AsyncNode, frameLen float64, slotsPerFrame, maxFrames int) []asyncRefDelivery {
	t.Helper()
	st, err := NewAsyncPregen(twin, maxFrames)
	if err != nil {
		t.Fatal(err)
	}
	timelines := make([]*clock.Timeline, len(twin))
	for u, nc := range twin {
		if timelines[u], err = clock.NewTimeline(nc.Start, frameLen, slotsPerFrame, nc.Drift); err != nil {
			t.Fatal(err)
		}
	}
	return referenceResolveAsync(nw, world, st.decisions, timelines, slotsPerFrame)
}

// coverageMatchesReference checks a run's coverage record against the
// reference deliveries: the covered links are exactly those the reference
// delivers on, each first covered at the reference's earliest delivery.
func coverageMatchesReference(t *testing.T, label string, cov *metrics.Coverage, want []asyncRefDelivery) {
	t.Helper()
	first := make(map[topology.Link]float64)
	for _, d := range want {
		l := topology.Link{From: d.from, To: d.to}
		if at, ok := first[l]; !ok || d.at < at {
			first[l] = d.at
		}
	}
	if covered := cov.TargetSize() - cov.Remaining(); covered != len(first) {
		t.Fatalf("%s: engine covered %d links, reference delivers on %d", label, covered, len(first))
	}
	if k := cov.NonTargetObservations(); k != 0 {
		t.Fatalf("%s: %d deliveries on links outside the coverage target", label, k)
	}
	for _, d := range want {
		l := topology.Link{From: d.from, To: d.to}
		at, ok := cov.FirstCovered(l)
		if !ok || at != first[l] {
			t.Fatalf("%s: link %v first covered at %v (covered %v), reference %v", label, l, at, ok, first[l])
		}
	}
}

func TestAsyncEngineMatchesReference(t *testing.T) {
	root := rng.New(424242)
	for trial := 0; trial < 60; trial++ {
		r := root.Split()
		t.Run(fmt.Sprintf("scenario%03d", trial), func(t *testing.T) {
			n := r.IntN(5) + 2
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
			frames := r.IntN(20) + 4
			frameLen := 1 + r.Float64()*4

			// Per-node scripts, drifts, starts — and private timelines for
			// the reference (the engine builds its own; NewTimeline is
			// deterministic per drift process, so use per-node Constant
			// drift to keep both sides identical).
			script := make([][]radio.Action, n)
			nodes := make([]AsyncNode, n)
			timelines := make([]*clock.Timeline, n)
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
				drift := clock.Constant(r.UniformFloat64(-0.14, 0.14))
				start := r.Float64() * 3 * frameLen
				nodes[u] = AsyncNode{
					Protocol: &scriptAsync{actions: script[u]},
					Start:    start,
					Drift:    drift,
				}
				tl, err := clock.NewTimeline(start, frameLen, slotsPerFrame, drift)
				if err != nil {
					t.Fatal(err)
				}
				timelines[u] = tl
			}

			var got []asyncRefDelivery
			res, err := RunAsync(AsyncConfig{
				Network:       nw,
				Nodes:         nodes,
				FrameLen:      frameLen,
				SlotsPerFrame: slotsPerFrame,
				MaxFrames:     frames,
				Observer: ObserverFunc(func(e Event) {
					if e.Kind == EventDeliver {
						got = append(got, asyncRefDelivery{from: e.From, to: e.To, at: e.Time})
					}
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := referenceResolveAsync(nw, nil, script, timelines, slotsPerFrame)
			if len(got) != len(want) {
				t.Fatalf("engine delivered %d, reference %d\nengine: %v\nreference: %v",
					len(got), len(want), got, want)
			}
			for i := range want {
				if got[i].from != want[i].from || got[i].to != want[i].to ||
					math.Abs(got[i].at-want[i].at) > 1e-9 {
					t.Fatalf("delivery %d: engine %+v, reference %+v", i, got[i], want[i])
				}
			}
			coverageMatchesReference(t, "scripted", res.Coverage, want)
		})
	}
}
