package sim

// Regression tests for engine hot-path hazards fixed alongside the resolver
// rework: the Heard-list aliasing seam (engines must snapshot a reporter's
// list at delivery time, not alias its backing array) and the
// FullFrames/MinFullFrames frame-budget clamp (bound audits must not count
// frames past the simulated horizon).

import (
	"testing"

	"m2hew/internal/radio"
	"m2hew/internal/topology"
)

// mutatingHeardSync transmits every slot and reports a Heard list whose
// backing array it overwrites in place on every step — the exact aliasing
// hazard: an engine that stores the returned slice instead of copying it
// would see all its delivered messages rewritten retroactively.
type mutatingHeardSync struct {
	h []topology.NodeID
}

func (p *mutatingHeardSync) Step(s int) radio.Action {
	p.h[0] = topology.NodeID(s)
	return radio.Action{Mode: radio.Transmit, Channel: 0}
}
func (p *mutatingHeardSync) Deliver(radio.Message)    {}
func (p *mutatingHeardSync) Heard() []topology.NodeID { return p.h }

// recordingSync listens on one channel and retains every delivered message.
type recordingSync struct {
	msgs []radio.Message
}

func (p *recordingSync) Step(int) radio.Action     { return radio.Action{Mode: radio.Receive, Channel: 0} }
func (p *recordingSync) Deliver(msg radio.Message) { p.msgs = append(p.msgs, msg) }

func TestSyncHeardSnapshotNotAliased(t *testing.T) {
	nw, err := topology.Clique(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	sender := &mutatingHeardSync{h: make([]topology.NodeID, 1)}
	receiver := &recordingSync{}
	if _, err := RunSync(SyncConfig{
		Network:       nw,
		Protocols:     []SyncProtocol{sender, receiver},
		MaxSlots:      8,
		RunToMaxSlots: true,
	}); err != nil {
		t.Fatal(err)
	}
	if len(receiver.msgs) != 8 {
		t.Fatalf("received %d messages, want 8", len(receiver.msgs))
	}
	for slot, msg := range receiver.msgs {
		if len(msg.Heard) != 1 || msg.Heard[0] != topology.NodeID(slot) {
			t.Fatalf("slot %d message Heard = %v, want [%d] — the engine aliased the reporter's slice",
				slot, msg.Heard, slot)
		}
	}
}

// heardAsync transmits every frame and reports a fixed-content Heard list
// through a slice the test mutates after the run.
type heardAsync struct {
	h []topology.NodeID
}

func (p *heardAsync) NextFrame(int) radio.Action {
	return radio.Action{Mode: radio.Transmit, Channel: 0}
}
func (p *heardAsync) Deliver(radio.Message)    {}
func (p *heardAsync) Heard() []topology.NodeID { return p.h }

// recordingAsync listens every frame and retains every delivered message.
type recordingAsync struct {
	msgs []radio.Message
}

func (p *recordingAsync) NextFrame(int) radio.Action {
	return radio.Action{Mode: radio.Receive, Channel: 0}
}
func (p *recordingAsync) Deliver(msg radio.Message) { p.msgs = append(p.msgs, msg) }

func TestAsyncHeardSnapshotNotAliased(t *testing.T) {
	t.Run("RunAsync", func(t *testing.T) {
		nw, err := topology.Clique(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AssignHomogeneous(nw, 1); err != nil {
			t.Fatal(err)
		}
		sender := &heardAsync{h: []topology.NodeID{42}}
		receiver := &recordingAsync{}
		if _, err := RunAsync(AsyncConfig{
			Network:   nw,
			Nodes:     []AsyncNode{{Protocol: sender}, {Protocol: receiver}},
			FrameLen:  3,
			MaxFrames: 4,
		}); err != nil {
			t.Fatal(err)
		}
		if len(receiver.msgs) == 0 {
			t.Fatal("no deliveries; the aliasing check tests nothing")
		}
		sender.h[0] = 99 // the hazard: mutate the reporter's array post-run
		for i, msg := range receiver.msgs {
			if len(msg.Heard) != 1 || msg.Heard[0] != 42 {
				t.Fatalf("message %d Heard = %v, want [42] — the engine aliased the reporter's slice",
					i, msg.Heard)
			}
		}
	})
}

// TestFullFramesStopAtFrameBudget pins the frame-budget clamp: the bound
// audit must count only frames the engine actually simulated, not walk the
// lazily extending timeline into frames no protocol ever decided.
func TestFullFramesStopAtFrameBudget(t *testing.T) {
	nw, err := topology.Clique(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignHomogeneous(nw, 1); err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(AsyncConfig{
		Network: nw,
		Nodes: []AsyncNode{
			{Protocol: &scriptAsync{}}, // all-quiet
			{Protocol: &scriptAsync{}},
		},
		FrameLen:  1,
		MaxFrames: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An interval reaching far past the horizon: only the 5 simulated
	// frames may count.
	if got := res.FullFrames(0, 0, 1000); got != 5 {
		t.Errorf("FullFrames over a past-horizon interval = %d, want 5", got)
	}
	if got := res.MinFullFrames(0, 1000); got != 5 {
		t.Errorf("MinFullFrames over a past-horizon interval = %d, want 5", got)
	}
	// Within the horizon the clamp is inert.
	if got := res.FullFrames(0, 0, 3.5); got != 3 {
		t.Errorf("FullFrames within the horizon = %d, want 3", got)
	}
	// FrameBudget 0 (a result not produced by an engine) disables the
	// clamp: the timeline extends to whatever the interval needs.
	unclamped := &AsyncResult{Timelines: res.Timelines}
	if got := unclamped.FullFrames(0, 0, 10.5); got != 10 {
		t.Errorf("unclamped FullFrames = %d, want 10", got)
	}
}
