package sim

// Tests for the engine-internals reporting seam (internals.go): the
// differential guarantee that the resolver-path slot attribution sums to
// the run's slot count on every path, the scratch-reuse and stepper
// tallies, and the perturbation guards — attaching an InternalsRecorder
// must keep the batched path, identical results, and the allocation
// profile of an unobserved run.

import (
	"testing"

	"m2hew/internal/channel"
	"m2hew/internal/dynamics"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/topology"
)

// internalsRun executes one seeded staged-protocol run with obs attached
// and returns the result.
func internalsRun(t *testing.T, nw *topology.Network, obs Observer, cfg SyncConfig) *SyncResult {
	t.Helper()
	cfg.Network = nw
	cfg.Protocols = syncProtos(t, nw, 55)
	if cfg.MaxSlots == 0 {
		cfg.MaxSlots = 600
	}
	cfg.RunToMaxSlots = true
	cfg.Observer = obs
	res, err := RunSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestInternalsPathAttributionSumsToSlots is the differential test for the
// resolver-path counters: on every configuration that selects a different
// run mode, exactly one path counter carries the run's whole slot count and
// the four always sum to SlotsSimulated. Each case also pins the full
// report — stepper, halo, budget and scratch tallies included — to the
// values the engine produced before its modes shared one pipeline, so a
// refactor that moves a run to another mode, or changes how a mode tallies
// (an empty batch on a staged slot, an edgeless network's empty mask
// table, a caller grid's fallbacks), fails here.
func TestInternalsPathAttributionSumsToSlots(t *testing.T) {
	nw := diffNet(t, 9, 12)
	grid := mustTiling(t, nw, 2, 2)
	world := func() *dynamics.World {
		w, err := dynamics.NewWorld(nw, dynamics.Spec{
			EpochLen: 100,
			Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 8, LeaveFraction: 0.2, LeaveWindow: 6},
		}, 6, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	loss := func() *LossModel {
		m, err := NewLossModel(0.25, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Staged starts: every node starts at slot 1 or later, so slot 0 pulls
	// an empty batch.
	starts := make([]int, nw.N())
	for u := range starts {
		starts[u] = 1 + u%5*7
	}
	// Edgeless: pairwise-disjoint channel sets leave every link without a
	// common channel, so the candidate table is empty.
	edgeless := diffNet(t, 9, 12)
	for u := 0; u < edgeless.N(); u++ {
		edgeless.SetAvail(topology.NodeID(u), channel.NewSet(channel.ID(u)))
	}
	nonConcurrent := func(cfg *SyncConfig) {
		cfg.Stepper = nonConcurrentStepper{st: syncStepper{protos: cfg.Protocols}}
	}
	cases := []struct {
		label string
		nw    *topology.Network
		cfg   SyncConfig
		full  bool              // wrap the recorder with a full observer (kernel)
		edit  func(*SyncConfig) // applied after the protocols are built
		want  Internals
	}{
		// A mask-0 recorder alone keeps the batched (event-free) mode.
		{label: "batched", want: Internals{SlotsSimulated: 600, BatchedSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		// A full observer demands per-listener events: kernel mode.
		{label: "kernel-full-observer", full: true, want: Internals{SlotsSimulated: 600, KernelSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		// Loss forces per-listener erasure draws: kernel even when masked off.
		{label: "kernel-lossy", cfg: SyncConfig{Loss: loss()}, want: Internals{SlotsSimulated: 600, KernelSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		// Dynamics runs resolve on the scalar mode by design.
		{label: "scalar-dynamics", cfg: SyncConfig{Dynamics: world()}, want: Internals{SlotsSimulated: 600, ScalarSlots: 600, StepperBatches: 600, StepperBatchNodes: 4400, MaxStepperBatch: 8, BatchSteps: 600, ScratchTableMisses: 1}},
		{label: "batched-staged", cfg: SyncConfig{StartSlots: starts}, want: Internals{SlotsSimulated: 600, BatchedSlots: 600, StepperBatches: 600, StepperBatchNodes: 7041, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		{label: "kernel-staged-full-observer", cfg: SyncConfig{StartSlots: starts}, full: true, want: Internals{SlotsSimulated: 600, KernelSlots: 600, StepperBatches: 600, StepperBatchNodes: 7041, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		{label: "batched-edgeless", nw: edgeless, want: Internals{SlotsSimulated: 600, BatchedSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		{label: "batched-edgeless-grid", nw: edgeless, cfg: SyncConfig{Tiling: mustTiling(t, edgeless, 2, 2)}, want: Internals{SlotsSimulated: 600, BatchedSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		{label: "tiled", cfg: SyncConfig{Tiling: grid}, want: Internals{SlotsSimulated: 600, TiledSlots: 600, HaloExchanges: 2250, HaloWordsCopied: 2250, StepperBatches: 2400, StepperBatchNodes: 7200, MaxStepperBatch: 4, BatchSteps: 2400, ScratchTableMisses: 1}},
		{label: "tiled-staged", cfg: SyncConfig{Tiling: grid, StartSlots: starts}, want: Internals{SlotsSimulated: 600, TiledSlots: 600, HaloExchanges: 2214, HaloWordsCopied: 2214, StepperBatches: 2389, StepperBatchNodes: 7041, MaxStepperBatch: 4, BatchSteps: 2389, ScratchTableMisses: 1}},
		{label: "tiled-1x1", cfg: SyncConfig{Tiling: mustTiling(t, nw, 1, 1)}, want: Internals{SlotsSimulated: 600, TiledSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		{label: "kernel-lossy-grid", cfg: SyncConfig{Tiling: grid, Loss: loss()}, want: Internals{SlotsSimulated: 600, KernelSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		{label: "kernel-full-observer-grid", cfg: SyncConfig{Tiling: grid}, full: true, want: Internals{SlotsSimulated: 600, KernelSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, BatchSteps: 600, ScratchTableMisses: 1}},
		{label: "batched-nonconcurrent-grid", cfg: SyncConfig{Tiling: grid}, edit: nonConcurrent, want: Internals{SlotsSimulated: 600, BatchedSlots: 600, StepperBatches: 600, StepperBatchNodes: 7200, MaxStepperBatch: 12, ScratchTableMisses: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			rec := &InternalsRecorder{}
			obs := Observer(rec)
			if tc.full {
				obs = MultiObserver(rec, ObserverFunc(func(Event) {}))
			}
			net := tc.nw
			if net == nil {
				net = nw
			}
			cfg := tc.cfg
			cfg.Network = net
			cfg.Protocols = syncProtos(t, net, 55)
			cfg.MaxSlots = 600
			cfg.RunToMaxSlots = true
			cfg.Observer = obs
			if tc.edit != nil {
				tc.edit(&cfg)
			}
			res, err := RunSync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Reports != 1 {
				t.Fatalf("reports = %d, want exactly 1 per run", rec.Reports)
			}
			in := rec.Last
			if in.SlotsSimulated != int64(res.SlotsSimulated) {
				t.Errorf("SlotsSimulated = %d, result says %d", in.SlotsSimulated, res.SlotsSimulated)
			}
			if sum := in.TiledSlots + in.BatchedSlots + in.KernelSlots + in.ScalarSlots; sum != in.SlotsSimulated {
				t.Errorf("path attribution sum = %d, want %d (tiled %d, batched %d, kernel %d, scalar %d)",
					sum, in.SlotsSimulated, in.TiledSlots, in.BatchedSlots, in.KernelSlots, in.ScalarSlots)
			}
			if in != tc.want {
				t.Errorf("internals = %#v\nwant        %#v", in, tc.want)
			}
		})
	}
}

// TestInternalsStepperTallies bounds the decision-batch accounting: one
// batch per simulated slot, batch sizes between 1 and n, and the max is a
// batch size that actually occurred.
func TestInternalsStepperTallies(t *testing.T) {
	nw := diffNet(t, 9, 12)
	rec := &InternalsRecorder{}
	res := internalsRun(t, nw, rec, SyncConfig{})
	in := rec.Last
	if in.StepperBatches != int64(res.SlotsSimulated) {
		t.Errorf("StepperBatches = %d, want one per slot (%d)", in.StepperBatches, res.SlotsSimulated)
	}
	n := int64(nw.N())
	if in.StepperBatchNodes < in.StepperBatches || in.StepperBatchNodes > in.StepperBatches*n {
		t.Errorf("StepperBatchNodes = %d outside [batches, batches*n] = [%d, %d]",
			in.StepperBatchNodes, in.StepperBatches, in.StepperBatches*n)
	}
	if in.MaxStepperBatch < 1 || in.MaxStepperBatch > n {
		t.Errorf("MaxStepperBatch = %d outside [1, %d]", in.MaxStepperBatch, n)
	}
	if mean := in.StepperBatchNodes / in.StepperBatches; in.MaxStepperBatch < mean {
		t.Errorf("MaxStepperBatch %d below mean batch size %d", in.MaxStepperBatch, mean)
	}
}

// TestInternalsScratchTableReuse: the first run on a fresh scratch rebuilds
// the network tables (miss), the second reuses them (hit), and switching
// networks invalidates the cache (miss again).
func TestInternalsScratchTableReuse(t *testing.T) {
	nwA := diffNet(t, 9, 12)
	nwB := diffNet(t, 10, 12)
	scratch := NewSyncScratch()
	step := func(nw *topology.Network) Internals {
		rec := &InternalsRecorder{}
		internalsRun(t, nw, rec, SyncConfig{Scratch: scratch})
		return rec.Last
	}
	if in := step(nwA); in.ScratchTableMisses != 1 || in.ScratchTableHits != 0 {
		t.Errorf("fresh scratch: hits %d misses %d, want 0/1", in.ScratchTableHits, in.ScratchTableMisses)
	}
	if in := step(nwA); in.ScratchTableHits != 1 || in.ScratchTableMisses != 0 {
		t.Errorf("same network: hits %d misses %d, want 1/0", in.ScratchTableHits, in.ScratchTableMisses)
	}
	if in := step(nwB); in.ScratchTableMisses != 1 || in.ScratchTableHits != 0 {
		t.Errorf("new network: hits %d misses %d, want 0/1", in.ScratchTableHits, in.ScratchTableMisses)
	}
}

// TestInternalsMaskBudgetOverrun pins the overrun attribution at the unit
// level (an end-to-end overrun needs a packed table past the 8 MB budget,
// i.e. a multi-thousand-node dense network): a run that fell back to the
// scalar path because its mask table was over budget reports the overrun;
// batched and dynamic-scalar runs never do.
func TestInternalsMaskBudgetOverrun(t *testing.T) {
	over := (&syncRun{}).finalizeInternals(100, true, false)
	if over.MaskBudgetOverruns != 1 || over.ScalarSlots != 100 {
		t.Errorf("over-budget run: %+v, want 1 overrun, 100 scalar slots", over)
	}
	batched := (&syncRun{mode: modeBatched}).finalizeInternals(100, false, true)
	if batched.MaskBudgetOverruns != 0 || batched.BatchedSlots != 100 || batched.ScratchTableHits != 1 {
		t.Errorf("batched run: %+v, want no overrun, 100 batched slots, table hit", batched)
	}
	dynamic := (&syncRun{}).finalizeInternals(100, false, false)
	if dynamic.MaskBudgetOverruns != 0 || dynamic.ScalarSlots != 100 {
		t.Errorf("dynamic scalar run: %+v, want no overrun, 100 scalar slots", dynamic)
	}
}

// TestInternalsMergeAcrossRuns checks lossless aggregation: totals sum,
// MaxStepperBatch takes the max.
func TestInternalsMergeAcrossRuns(t *testing.T) {
	var total Internals
	total.Merge(Internals{SlotsSimulated: 10, BatchedSlots: 10, StepperBatches: 10, StepperBatchNodes: 40, MaxStepperBatch: 8, ScratchTableMisses: 1})
	total.Merge(Internals{SlotsSimulated: 20, KernelSlots: 20, StepperBatches: 20, StepperBatchNodes: 60, MaxStepperBatch: 5, ScratchTableHits: 1})
	want := Internals{
		SlotsSimulated: 30, BatchedSlots: 10, KernelSlots: 20,
		StepperBatches: 30, StepperBatchNodes: 100, MaxStepperBatch: 8,
		ScratchTableHits: 1, ScratchTableMisses: 1,
	}
	if total != want {
		t.Errorf("merged = %+v, want %+v", total, want)
	}
}

// TestInternalsRecorderDoesNotPerturb is the observer-invariance guard for
// the seam: a run with an InternalsRecorder attached stays on the batched
// path and produces coverage identical to the unobserved run, for static
// and dynamic configurations alike.
func TestInternalsRecorderDoesNotPerturb(t *testing.T) {
	nw := diffNet(t, 9, 12)
	world := func() *dynamics.World {
		w, err := dynamics.NewWorld(nw, dynamics.Spec{
			EpochLen: 100,
			Churn:    &dynamics.Churn{JoinFraction: 0.3, JoinWindow: 8, LeaveFraction: 0.2, LeaveWindow: 6},
		}, 6, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, tc := range []struct {
		label string
		cfg   func() SyncConfig
	}{
		{"static", func() SyncConfig { return SyncConfig{} }},
		{"dynamics", func() SyncConfig { return SyncConfig{Dynamics: world()} }},
	} {
		base := internalsRun(t, nw, nil, tc.cfg())
		rec := &InternalsRecorder{}
		got := internalsRun(t, nw, rec, tc.cfg())
		sameCoverage(t, tc.label, base.Coverage, got.Coverage)
		if got.SlotsSimulated != base.SlotsSimulated {
			t.Errorf("%s: slots %d with recorder, %d without", tc.label, got.SlotsSimulated, base.SlotsSimulated)
		}
		if tc.label == "static" && rec.Last.BatchedSlots != rec.Last.SlotsSimulated {
			t.Errorf("recorder flipped the run off the batched path: %+v", rec.Last)
		}
	}
}

// TestInternalsRecorderSteadyStateAllocs extends the batched-path alloc
// guard: tallying internals for an attached recorder must not add
// allocations to the scratch-reusing hot loop.
func TestInternalsRecorderSteadyStateAllocs(t *testing.T) {
	r := rng.New(42)
	nw, err := topology.GeometricConnected(48, 0.3, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AssignUniformK(nw, 6, 3, r); err != nil {
		t.Fatal(err)
	}
	n := nw.N()
	protos := make([]SyncProtocol, n)
	for u := 0; u < n; u++ {
		avail := nw.Avail(topology.NodeID(u))
		c, err := avail.Pick(r)
		if err != nil {
			t.Fatal(err)
		}
		mode := radio.Receive
		if r.Bernoulli(0.4) {
			mode = radio.Transmit
		}
		protos[u] = &sinkSync{act: radio.Action{Mode: mode, Channel: c}}
	}
	scratch := NewSyncScratch()
	rec := &InternalsRecorder{}
	run := func() {
		if _, err := RunSync(SyncConfig{
			Network:       nw,
			Protocols:     protos,
			MaxSlots:      64,
			RunToMaxSlots: true,
			Scratch:       scratch,
			Observer:      rec,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch
	if allocs := testing.AllocsPerRun(10, run); allocs > 80 {
		t.Errorf("recorder-attached batched run allocated %.0f objects per scratch-reusing run", allocs)
	}
	if rec.Last.BatchedSlots != 64 {
		t.Errorf("alloc guard ran off the batched path: %+v", rec.Last)
	}
}
