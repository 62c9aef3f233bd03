package main

import (
	"runtime"
	"sync"
	"time"

	"m2hew/internal/sim"
)

// harnessStats is the traced run's harness.Instrument: it tallies the
// pool's busy time and queue wait per work item and, for trials the
// harness's engine helpers run, merges each trial's engine-internals report
// from a sim.InternalsRecorder, which subscribes to no events and so leaves
// the engine on the path it takes untraced.
type harnessStats struct {
	mu         sync.Mutex
	busy, wait time.Duration
	items      int
	internals  sim.Internals
}

func (h *harnessStats) TrialObserver(nodes, channels int) sim.Observer {
	return &sim.InternalsRecorder{}
}

func (h *harnessStats) TrialDone(obs sim.Observer) {
	if r, ok := obs.(*sim.InternalsRecorder); ok {
		h.mu.Lock()
		h.internals.Merge(r.Total)
		h.mu.Unlock()
	}
}

func (h *harnessStats) ObserveRun(_ int, queueDelay, wall time.Duration) {
	h.mu.Lock()
	h.busy += wall
	h.wait += queueDelay
	h.items++
	h.mu.Unlock()
}

// samples is a per-round tally: catalog name → one value per traced round.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// medians reduces every tally to its median.
func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for name, xs := range s {
		out[name] = median(xs)
	}
	return out
}

// addHarness tallies one round's harness numbers; wall is the round's wall
// time, so utilization is busy over wall times the worker count. In the
// suite each experiment's trial pool runs inside the experiment pool, so
// more items are in flight than there are processors and utilization can
// exceed 1.
func (s samples) addHarness(h *harnessStats, wall time.Duration) {
	s.add("harness.busy_s", h.busy.Seconds())
	s.add("harness.queue_wait_s", h.wait.Seconds())
	s.add("harness.items", float64(h.items))
	s.add("harness.utilization", h.busy.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
}

// addInternals tallies one round's engine-internals totals and checks the
// deterministic ones, as outputs of inputs generated from seed, against
// the reference and the earlier rounds. It returns false on a mismatch.
func (s samples) addInternals(in sim.Internals, chk *checker, seed uint64) bool {
	s.add("sim.slots", float64(in.SlotsSimulated))
	s.add("sim.tiled_slots", float64(in.TiledSlots))
	s.add("sim.batched_slots", float64(in.BatchedSlots))
	s.add("sim.kernel_slots", float64(in.KernelSlots))
	s.add("sim.scalar_slots", float64(in.ScalarSlots))
	if in.SlotsSimulated > 0 {
		s.add("sim.halo_words_per_slot", float64(in.HaloWordsCopied)/float64(in.SlotsSimulated))
	}
	// Which worker's scratch a trial lands on depends on scheduling, so
	// the hit ratio is reported but not checked.
	if lookups := in.ScratchTableHits + in.ScratchTableMisses; lookups > 0 {
		s.add("sim.scratch_lookups", float64(lookups))
		s.add("sim.scratch_hit_ratio", float64(in.ScratchTableHits)/float64(lookups))
	}
	ok := chk.countSeed(seed, "sim.slots", in.SlotsSimulated)
	ok = chk.countSeed(seed, "sim.tiled_slots", in.TiledSlots) && ok
	ok = chk.countSeed(seed, "sim.batched_slots", in.BatchedSlots) && ok
	ok = chk.countSeed(seed, "sim.kernel_slots", in.KernelSlots) && ok
	ok = chk.countSeed(seed, "sim.scalar_slots", in.ScalarSlots) && ok
	return chk.countSeed(seed, "sim.halo_words", in.HaloWordsCopied) && ok
}
