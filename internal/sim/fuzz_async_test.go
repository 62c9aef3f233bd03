package sim

// FuzzAsyncResolve drives the asynchronous engine with decoded scenarios,
// replaying their scripts through PregenStepper, and pins it to the
// brute-force oracle, referenceResolveAsync: per-receiver deliveries
// (sender order included) and the coverage record always, and with an
// observer attached the whole event stream — every frame's start in
// global (frame end, NodeID) order, each listening frame's deliveries and
// Collected/Delivered resolve event, and the delivery order itself.
// Scenarios cover 2–16 nodes, random starts under random-walk drift up to
// 1/7 or common starts on ideal clocks (where every frame end ties), 1–5
// slots per frame, dropped directions, and churn worlds, whose listening
// frames resolve against the epoch containing their start.

import (
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/clock"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// Flag bits of an async scenario's first byte.
const (
	fuzzAsyncObserve = 1 << 0
	fuzzAsyncDrop    = 1 << 1
	fuzzAsyncChurn   = 1 << 2
	fuzzAsyncAligned = 1 << 3 // common start, ideal clocks
)

// fuzzAsyncScenario is one decoded FuzzAsyncResolve input.
type fuzzAsyncScenario struct {
	nw            *topology.Network
	script        [][]radio.Action // per node, per frame
	starts        []float64
	driftBound    float64  // 0: ideal clocks
	driftSeeds    []uint64 // per node
	frameLen      float64
	slotsPerFrame int
	observe       bool
	churn         *dynamics.Spec // nil: static network
	epochs        int
	worldSeed     uint64
}

// decodeAsyncScenario turns fuzz bytes into a scenario: flags, node count
// (2–16), radius and geometry seed, per-node channel sets (1–3 IDs, see
// fuzzChannel), optional dropped directions, slots per frame (1–5), frame
// count (1–24) and length, clocks (unless aligned: a drift bound up to 1/7,
// then per node a start within four frames and a drift seed), per-node
// scripts, and an optional churn world.
func decodeAsyncScenario(t *testing.T, data []byte) fuzzAsyncScenario {
	t.Helper()
	in := &fuzzBytes{b: data}
	flags := in.next()
	sc := fuzzAsyncScenario{observe: flags&fuzzAsyncObserve != 0}
	n := 2 + int(in.next())%15
	radius := 0.25 + float64(in.next()%64)/64
	nw, err := topology.Geometric(n, radius, rng.New(uint64(in.next())))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		k := 1 + int(in.next())%3
		ids := make([]channel.ID, k)
		for j := range ids {
			ids[j] = fuzzChannel(in.next())
		}
		nw.SetAvail(topology.NodeID(u), channel.NewSet(ids...))
	}
	if flags&fuzzAsyncDrop != 0 {
		for u := 0; u < n; u++ {
			for _, v := range nw.Neighbors(topology.NodeID(u)) {
				if in.next()%4 != 0 {
					continue
				}
				if err := nw.DropDirection(v, topology.NodeID(u)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sc.nw = nw

	sc.slotsPerFrame = 1 + int(in.next())%5
	frames := 1 + int(in.next())%24
	sc.frameLen = 1 + float64(in.next()%8)/2
	sc.starts = make([]float64, n)
	sc.driftSeeds = make([]uint64, n)
	maxStart := 0.0
	if flags&fuzzAsyncAligned == 0 {
		sc.driftBound = float64(in.next()%9) / 56
		for u := 0; u < n; u++ {
			sc.starts[u] = float64(in.next()%64) / 16 * sc.frameLen
			maxStart = max(maxStart, sc.starts[u])
			sc.driftSeeds[u] = uint64(in.next())<<8 | uint64(in.next())
		}
	}

	sc.script = make([][]radio.Action, n)
	for u := range sc.script {
		ids := nw.Avail(topology.NodeID(u)).IDs()
		sc.script[u] = make([]radio.Action, frames)
		for f := range sc.script[u] {
			x := int(in.next())
			c := ids[(x/3)%len(ids)]
			switch x % 3 {
			case 0:
				sc.script[u][f] = radio.Action{Mode: radio.Quiet}
			case 1:
				sc.script[u][f] = radio.Action{Mode: radio.Transmit, Channel: c}
			default:
				sc.script[u][f] = radio.Action{Mode: radio.Receive, Channel: c}
			}
		}
	}

	if flags&fuzzAsyncChurn != 0 {
		sc.churn = &dynamics.Spec{
			EpochLen: sc.frameLen * (0.5 + float64(in.next()%8)/2),
			Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 3, LeaveFraction: 0.3, LeaveWindow: 3},
		}
		// Epochs through the latest possible frame end; EpochOf clamps
		// anything later to the final epoch.
		span := maxStart + float64(frames)*sc.frameLen/(1-sc.driftBound)
		sc.epochs = int(span/sc.churn.EpochLen) + 1
		sc.worldSeed = uint64(in.next())
	}
	return sc
}

// drifts returns a fresh set of per-node drift processes: the engine and
// the oracle each get their own, drawing identical rates from equal seeds.
func (sc fuzzAsyncScenario) drifts(t *testing.T) []clock.DriftProcess {
	t.Helper()
	out := make([]clock.DriftProcess, len(sc.starts))
	if sc.driftBound == 0 {
		return out // nil: ideal clocks
	}
	for u := range out {
		w, err := clock.NewRandomWalk(sc.driftBound, sc.driftBound/4, rng.New(sc.driftSeeds[u]))
		if err != nil {
			t.Fatal(err)
		}
		out[u] = w
	}
	return out
}

// world returns a fresh churn world for the scenario, nil when static.
func (sc fuzzAsyncScenario) world(t *testing.T) *dynamics.World {
	t.Helper()
	if sc.churn == nil {
		return nil
	}
	w, err := dynamics.NewWorld(sc.nw, *sc.churn, sc.epochs, rng.New(sc.worldSeed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// asyncFrameID names one frame of one node.
type asyncFrameID struct {
	node  topology.NodeID
	frame int
}

func FuzzAsyncResolve(f *testing.F) {
	f.Add([]byte{0, 3, 40, 1})
	f.Add([]byte{fuzzAsyncObserve | fuzzAsyncAligned, 8, 60, 2, 0, 1, 2})
	f.Add([]byte{fuzzAsyncObserve | fuzzAsyncDrop, 12, 20, 3, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{fuzzAsyncChurn, 14, 10, 4, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{fuzzAsyncObserve | fuzzAsyncChurn | fuzzAsyncDrop, 15, 30, 5, 200, 100, 50, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeAsyncScenario(t, data)
		n := sc.nw.N()
		frames := len(sc.script[0])

		refDrifts := sc.drifts(t)
		timelines := make([]*clock.Timeline, n)
		for u := range timelines {
			tl, err := clock.NewTimeline(sc.starts[u], sc.frameLen, sc.slotsPerFrame, refDrifts[u])
			if err != nil {
				t.Fatal(err)
			}
			timelines[u] = tl
		}
		want := referenceResolveAsync(sc.nw, sc.world(t), sc.script, timelines, sc.slotsPerFrame)

		drifts := sc.drifts(t)
		scripts := make([]*scriptAsync, n)
		nodes := make([]AsyncNode, n)
		for u := range nodes {
			scripts[u] = &scriptAsync{}
			nodes[u] = AsyncNode{Protocol: scripts[u], Start: sc.starts[u], Drift: drifts[u]}
		}
		cfg := AsyncConfig{
			Network:       sc.nw,
			Nodes:         nodes,
			FrameLen:      sc.frameLen,
			SlotsPerFrame: sc.slotsPerFrame,
			MaxFrames:     frames,
			Stepper:       &PregenStepper{decisions: sc.script},
			Dynamics:      sc.world(t),
		}
		var (
			events    []asyncRefDelivery
			starts    []asyncFrameID
			resolved  = make(map[asyncFrameID]Event)
			current   asyncFrameID
			lastEnd   float64
			lastOwner topology.NodeID
		)
		if sc.observe {
			cfg.Observer = ObserverFunc(func(e Event) {
				switch e.Kind {
				case EventFrameStart:
					current = asyncFrameID{node: e.Node, frame: e.Slot}
					_, end := timelines[e.Node].FrameInterval(e.Slot)
					if len(starts) > 0 && (end < lastEnd || end == lastEnd && e.Node <= lastOwner) {
						t.Fatalf("node %d frame %d (end %v) follows node %d's frame ending %v",
							e.Node, e.Slot, end, lastOwner, lastEnd)
					}
					lastEnd, lastOwner = end, e.Node
					starts = append(starts, current)
				case EventDeliver:
					if e.To != current.node {
						t.Fatalf("delivery to %d inside node %d's frame group", e.To, current.node)
					}
					events = append(events, asyncRefDelivery{from: e.From, to: e.To, frame: current.frame, at: e.Time})
				case EventFrameResolve:
					resolved[asyncFrameID{node: e.Node, frame: e.Slot}] = e
				}
			})
		}
		res, err := RunAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}

		perNode := make([][]topology.NodeID, n)
		for _, d := range want {
			perNode[d.to] = append(perNode[d.to], d.from)
		}
		for u, s := range scripts {
			if len(s.delivered) != len(perNode[u]) {
				t.Fatalf("node %d received %d messages, oracle %d", u, len(s.delivered), len(perNode[u]))
			}
			for i, msg := range s.delivered {
				if msg.From != perNode[u][i] {
					t.Fatalf("node %d message %d from %d, oracle %d", u, i, msg.From, perNode[u][i])
				}
			}
		}
		coverageMatchesReference(t, "fuzz", res.Coverage, want)
		if !sc.observe {
			return
		}

		if len(starts) != n*frames {
			t.Fatalf("observer saw %d frame starts, want %d", len(starts), n*frames)
		}
		if len(events) != len(want) {
			t.Fatalf("observer saw %d delivery events, oracle %d", len(events), len(want))
		}
		delivered := make(map[asyncFrameID]int)
		for i := range want {
			if events[i] != want[i] {
				t.Fatalf("delivery event %d = %+v, oracle %+v", i, events[i], want[i])
			}
			delivered[asyncFrameID{node: want[i].to, frame: want[i].frame}]++
		}
		for u := range sc.script {
			for f, a := range sc.script[u] {
				id := asyncFrameID{node: topology.NodeID(u), frame: f}
				e, ok := resolved[id]
				if ok != (a.Mode == radio.Receive) {
					t.Fatalf("node %d frame %d (%v): resolve event present %v", u, f, a.Mode, ok)
				}
				if ok && e.Delivered != delivered[id] {
					t.Fatalf("node %d frame %d: resolve event reports %d deliveries, oracle %d", u, f, e.Delivered, delivered[id])
				}
			}
		}
	})
}
