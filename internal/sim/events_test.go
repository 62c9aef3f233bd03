package sim

import (
	"math"
	"reflect"
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/radio"
	"m2hew/internal/topology"
	"m2hew/internal/trace"
)

// TestSyncCollisionIdleEvents hand-checks the synchronous engine's full
// event stream on a 3-node line (0–1–2, one channel):
//
//	slot 0: 0 and 2 transmit, 1 listens  → collision at 1 (first survivor 0)
//	slot 1: 0 transmits, 1 and 2 listen  → deliver 0→1; idle at 2 (its only
//	        candidate, node 1, is not transmitting — the post-scan idle path)
//	slot 2: everyone listens             → idle at 0, 1, 2 (silent-channel path)
func TestSyncCollisionIdleEvents(t *testing.T) {
	nw, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	protos := []SyncProtocol{
		&scriptSync{actions: []radio.Action{tx(0), tx(0), rx(0)}},
		&scriptSync{actions: []radio.Action{rx(0), rx(0), rx(0)}},
		&scriptSync{actions: []radio.Action{tx(0), rx(0), rx(0)}},
	}
	var got []Event
	_, err = RunSync(SyncConfig{
		Network:       nw,
		Protocols:     protos,
		MaxSlots:      3,
		RunToMaxSlots: true,
		Observer: ObserverFunc(func(e Event) {
			e.Actions = nil // borrowed; drop before retaining
			got = append(got, e)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: EventSlot, Time: 0, Slot: 0},
		{Kind: EventCollision, Time: 0, Slot: 0, From: 0, To: 1, Channel: 0},
		{Kind: EventSlot, Time: 1, Slot: 1},
		{Kind: EventDeliver, Time: 1, Slot: 1, From: 0, To: 1, Channel: 0},
		{Kind: EventIdle, Time: 1, Slot: 1, To: 2, Channel: 0},
		{Kind: EventSlot, Time: 2, Slot: 2},
		{Kind: EventIdle, Time: 2, Slot: 2, To: 0, Channel: 0},
		{Kind: EventIdle, Time: 2, Slot: 2, To: 1, Channel: 0},
		{Kind: EventIdle, Time: 2, Slot: 2, To: 2, Channel: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// asyncEventPair builds the standard two-node asynchronous event scenario:
// node 0 always transmits, node 1 always listens, ideal clocks, common
// start, frame length 3, 2 frames.
func asyncEventPair(t *testing.T, obs Observer) AsyncConfig {
	t.Helper()
	nw := pairNet(t, channel.NewSet(0), channel.NewSet(0))
	return AsyncConfig{
		Network: nw,
		Nodes: []AsyncNode{
			{Protocol: &scriptAsync{actions: []radio.Action{tx(0)}}},
			{Protocol: &scriptAsync{actions: []radio.Action{rx(0)}}},
		},
		FrameLen:  3,
		MaxFrames: 2,
		Observer:  obs,
	}
}

func TestAsyncFrameEvents(t *testing.T) {
	var got []Event
	cfg := asyncEventPair(t, ObserverFunc(func(e Event) { got = append(got, e) }))
	if _, err := RunAsync(cfg); err != nil {
		t.Fatal(err)
	}
	// Frames grouped at their resolution point, in global frame-end order
	// (ties broken by ascending node): node 0's tx frame (start only), then
	// node 1's rx frame with its delivery bracketed by start/resolve. Each
	// listening frame fully contains one 3-slot transmit frame of node 0:
	// Collected = 3 slots, Delivered = 1 (one delivery per sender per
	// frame).
	want := []Event{
		{Kind: EventFrameStart, Time: 0, Slot: 0, Node: 0, Action: tx(0)},
		{Kind: EventFrameStart, Time: 0, Slot: 0, Node: 1, Action: rx(0)},
		{Kind: EventDeliver, Time: 1, From: 0, To: 1, Channel: 0},
		{Kind: EventFrameResolve, Time: 3, Slot: 0, Node: 1, Action: rx(0), Collected: 3, Delivered: 1},
		{Kind: EventFrameStart, Time: 3, Slot: 1, Node: 0, Action: tx(0)},
		{Kind: EventFrameStart, Time: 3, Slot: 1, Node: 1, Action: rx(0)},
		{Kind: EventDeliver, Time: 4, From: 0, To: 1, Channel: 0},
		{Kind: EventFrameResolve, Time: 6, Slot: 1, Node: 1, Action: rx(0), Collected: 3, Delivered: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAsyncOnlineFrameEvents checks the engine's delivery-as-you-go event
// order on a drifting, offset-start network, where no hand-written pin
// reaches: each listening frame's events form one group — its start, the
// deliveries it received, its resolve — with every delivery inside the
// frame's real interval and counted by the resolve, and frames resolve in
// nondecreasing real end time.
func TestAsyncOnlineFrameEvents(t *testing.T) {
	nw, err := topology.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignBlockOverlap(nw, 2, 1); err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	var (
		open      *Event // listening frame whose group is in progress
		inGroup   int
		lastRecv  float64 // latest delivery time in the open group
		resolves  int
		delivered int
		lastEnd   = math.Inf(-1)
	)
	_, err = RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     buildAsyncNodes(t, nw, 2, 4242),
		FrameLen:  3,
		MaxFrames: 300,
		Observer: ObserverFunc(func(e Event) {
			switch e.Kind {
			case EventFrameStart:
				if open != nil {
					t.Fatalf("node %d frame %d starts inside node %d frame %d's group", e.Node, e.Slot, open.Node, open.Slot)
				}
				if e.Action.Mode == radio.Receive {
					open, inGroup, lastRecv = &e, 0, e.Time
				}
			case EventDeliver:
				if open == nil || open.Node != e.To {
					t.Fatalf("delivery %d→%d at %v outside the receiver's frame group", e.From, e.To, e.Time)
				}
				if e.Time < open.Time-eps {
					t.Fatalf("delivery %d→%d at %v before its frame starts at %v", e.From, e.To, e.Time, open.Time)
				}
				lastRecv = max(lastRecv, e.Time)
				inGroup++
				delivered++
			case EventFrameResolve:
				if open == nil || open.Node != e.Node || open.Slot != e.Slot {
					t.Fatalf("node %d frame %d resolves outside its own group", e.Node, e.Slot)
				}
				if e.Delivered != inGroup || e.Collected < e.Delivered {
					t.Fatalf("node %d frame %d: Delivered %d, Collected %d, %d deliveries in group", e.Node, e.Slot, e.Delivered, e.Collected, inGroup)
				}
				if lastRecv > e.Time+eps {
					t.Fatalf("node %d frame %d ends at %v before its delivery at %v", e.Node, e.Slot, e.Time, lastRecv)
				}
				if e.Time < lastEnd-eps {
					t.Fatalf("node %d frame %d resolves at %v after a frame ending at %v", e.Node, e.Slot, e.Time, lastEnd)
				}
				lastEnd = max(lastEnd, e.Time)
				open = nil
				resolves++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if open != nil {
		t.Fatalf("node %d frame %d never resolved", open.Node, open.Slot)
	}
	if resolves == 0 || delivered == 0 {
		t.Fatalf("%d resolves, %d deliveries; the order check tests nothing", resolves, delivered)
	}
}

// TestAsyncFrameQueueTieBreak pins the frame queue's tie-break: with
// common starts and ideal clocks every node's frames end at the same
// instants, and equal-time frames must resolve in ascending NodeID — the
// queue's key is (frame end, NodeID), not the end alone.
func TestAsyncFrameQueueTieBreak(t *testing.T) {
	const n, frames = 9, 4
	nw, err := topology.Clique(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	nodes := make([]AsyncNode, n)
	for u := range nodes {
		act := rx(0)
		if u == n/2 {
			act = tx(0)
		}
		nodes[u] = AsyncNode{Protocol: &scriptAsync{actions: []radio.Action{act}}}
	}
	var starts []Event
	delivered := 0
	_, err = RunAsync(AsyncConfig{
		Network:   nw,
		Nodes:     nodes,
		FrameLen:  3,
		MaxFrames: frames,
		Observer: ObserverFunc(func(e Event) {
			switch e.Kind {
			case EventFrameStart:
				starts = append(starts, e)
			case EventDeliver:
				delivered++
				if last := starts[len(starts)-1]; last.Node != e.To {
					t.Fatalf("delivery to %d inside node %d's frame group", e.To, last.Node)
				}
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := frames * (n - 1); delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
	if len(starts) != n*frames {
		t.Fatalf("got %d frame starts, want %d", len(starts), n*frames)
	}
	for i, e := range starts {
		if f, u := i/n, topology.NodeID(i%n); e.Slot != f || e.Node != u {
			t.Fatalf("frame start %d is node %d frame %d, want node %d frame %d", i, e.Node, e.Slot, u, f)
		}
	}
}

func TestEventTraceObserver(t *testing.T) {
	if EventTraceObserver(nil) != nil {
		t.Error("EventTraceObserver(nil) should be nil")
	}
	ring, err := trace.NewRing(16)
	if err != nil {
		t.Fatal(err)
	}
	obs := EventTraceObserver(ring)
	obs.OnEvent(Event{Kind: EventSlot, Time: 2, Slot: 2, Actions: []radio.Action{
		tx(1), rx(1), {Mode: radio.Quiet},
	}})
	obs.OnEvent(Event{Kind: EventDeliver, Time: 2, From: 0, To: 1, Channel: 1})
	obs.OnEvent(Event{Kind: EventCollision, Time: 3, From: 0, To: 2, Channel: 1})
	obs.OnEvent(Event{Kind: EventIdle, Time: 3, To: 1, Channel: 0})
	obs.OnEvent(Event{Kind: EventFrameStart, Time: 1.5, Slot: 4, Node: 2, Action: rx(0)})
	obs.OnEvent(Event{Kind: EventFrameResolve, Time: 4.5, Slot: 4, Node: 2, Action: rx(0), Collected: 2, Delivered: 1})

	want := []trace.Event{
		{Time: 2, Kind: trace.KindTx, From: 0, Channel: 1},
		{Time: 2, Kind: trace.KindDeliver, From: 0, To: 1, Channel: 1},
		{Time: 3, Kind: trace.KindCollision, From: 0, To: 2, Channel: 1},
		{Time: 3, Kind: trace.KindIdle, To: 1, Channel: 0},
		{Time: 1.5, Kind: trace.KindFrameStart, From: 2, Frame: 4, Channel: 0, Note: "rx"},
		{Time: 4.5, Kind: trace.KindFrameResolve, From: 2, Frame: 4, Channel: 0, Note: "rx", Collected: 2, Delivered: 1},
	}
	got := ring.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %d events, want %d:\n%s", len(got), len(want), trace.Format(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// sinkAsync repeats one action forever and counts deliveries without
// retaining them.
type sinkAsync struct {
	act       radio.Action
	delivered int
}

func (s *sinkAsync) NextFrame(int) radio.Action { return s.act }
func (s *sinkAsync) Deliver(_ radio.Message)    { s.delivered++ }

// asyncAllocConfig builds a 4-node clique scenario where node 0 transmits
// and the rest listen — deliveries every listening frame, exercising both
// the resolver and the delivery path.
func asyncAllocConfig(t *testing.T) (AsyncConfig, []*sinkAsync) {
	t.Helper()
	nw, err := topology.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	sinks := make([]*sinkAsync, 4)
	nodes := make([]AsyncNode, 4)
	for u := range nodes {
		act := radio.Action{Mode: radio.Receive, Channel: 0}
		if u == 0 {
			act = radio.Action{Mode: radio.Transmit, Channel: 0}
		}
		sinks[u] = &sinkAsync{act: act}
		nodes[u] = AsyncNode{Protocol: sinks[u]}
	}
	return AsyncConfig{Network: nw, Nodes: nodes, FrameLen: 3, MaxFrames: 64}, sinks
}

// TestAsyncNilObserverNoAllocs pins the asynchronous engine's telemetry
// cost at zero when disabled: with a nil observer the frame-event emission
// sites construct no Event values, so the engine performs only its fixed
// per-run setup (timelines, frame tables, frame queue, env scratch,
// coverage). The
// budget sits far below the 64-frame × 4-node horizon, so one hidden
// per-frame or per-event allocation blows it.
func TestAsyncNilObserverNoAllocs(t *testing.T) {
	t.Run("RunAsync", func(t *testing.T) {
		cfg, sinks := asyncAllocConfig(t)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := RunAsync(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if sinks[1].delivered == 0 {
			t.Fatal("scenario produced no deliveries; the guard tests nothing")
		}
		if allocs > 600 {
			t.Errorf("RunAsync with nil observer allocated %.0f objects per run", allocs)
		}
	})
}
