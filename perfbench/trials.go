package main

import (
	"fmt"
	"runtime"
	"time"

	"m2hew"
	"m2hew/internal/harness"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
)

// trialsWorkload is the library user's trial loop: m2hew.BuildNetwork
// builds an n=400 geometric network with primary-user channels, and each
// round runs m2hew.RunTrials once per config of a four-config sync mix. An
// operation is one trial.
type trialsWorkload struct {
	seed   uint64
	trials int
	nw     *m2hew.Network
	// truth[u] maps each true neighbor v of u to span(u,v) as a bitmask.
	truth   []map[int]uint64
	mix     []trialConfig
	reports [][]*m2hew.Report
	stats   *harnessStats
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	tally   samples
	// Filled by probe: the engine-internals totals and deliveries of one
	// pass of the mix, replayed trial by trial through m2hew.Run.
	pass       sim.Internals
	deliveries int64
}

type trialConfig struct {
	name string
	cfg  m2hew.RunConfig
}

const (
	trialsNodes  = 400
	trialsRadius = 0.1
	// trialsDeltaEst is an upper bound on Δ well above the 20–29 of seeds
	// 1–12, fixed so that the horizon the algorithms size from it does not
	// jump with a seed's Δ (the default is Δ rounded up to a power of 2).
	trialsDeltaEst = 64
)

func newTrials(seed uint64, short bool) *trialsWorkload {
	w := &trialsWorkload{seed: seed, trials: 8, tally: make(samples)}
	if short {
		w.trials = 2
	}
	return w
}

// trialMix is the four sync configs, each on the resolver path named:
// uniform with a start window and staged take the batched path, lossy the
// kernel path, churn (dynamics, fixed horizon) the scalar path.
func trialMix(seed uint64) []trialConfig {
	r := rng.New(seed)
	return []trialConfig{
		{"uniform", m2hew.RunConfig{Algorithm: m2hew.AlgorithmSyncUniform, DeltaEst: trialsDeltaEst,
			StartWindow: 64, Seed: r.Uint64()}},
		{"staged", m2hew.RunConfig{Algorithm: m2hew.AlgorithmSyncStaged, DeltaEst: trialsDeltaEst,
			Seed: r.Uint64()}},
		{"lossy", m2hew.RunConfig{Algorithm: m2hew.AlgorithmSyncUniform, DeltaEst: trialsDeltaEst,
			LossProb: 0.2, Seed: r.Uint64()}},
		{"churn", m2hew.RunConfig{Algorithm: m2hew.AlgorithmSyncUniform, DeltaEst: trialsDeltaEst,
			MaxSlots: 1000, Seed: r.Uint64(), Dynamics: &m2hew.DynamicsConfig{
				EpochLen: 50, ChurnJoinFraction: 0.2, ChurnJoinWindow: 5,
				ChurnLeaveFraction: 0.1, ChurnLeaveWindow: 10}}},
	}
}

// setup builds the network, its ground truth, and warms up with one
// untimed, checked pass of the mix.
func (w *trialsWorkload) setup(tr *tracer, parent int, chk *checker) error {
	id := tr.begin("topology.build", parent)
	nw, err := m2hew.BuildNetwork(m2hew.NetworkConfig{
		Nodes: trialsNodes, Topology: m2hew.TopologyGeometric, Radius: trialsRadius,
		Universe: 16, Channels: m2hew.ChannelsPrimaryUsers, Seed: w.seed,
	})
	tr.end(id)
	if err != nil {
		return err
	}
	w.nw = nw
	w.truth = make([]map[int]uint64, nw.N())
	for u := range w.truth {
		w.truth[u] = make(map[int]uint64)
		for _, v := range nw.NeighborIDs(u) {
			w.truth[u][v] = mask(nw.CommonChannels(u, v))
		}
	}
	w.mix = trialMix(w.seed)
	if _, err := w.round(nil, -1); err != nil {
		return err
	}
	w.verify(chk, false)
	return nil
}

func (w *trialsWorkload) prepare(tr *tracer) error {
	w.stats = nil
	if tr != nil {
		w.stats = new(harnessStats)
	}
	return nil
}

func (w *trialsWorkload) round(tr *tracer, parent int) (float64, error) {
	var before, after runtime.MemStats
	if w.stats != nil {
		harness.SetInstrument(w.stats)
		defer harness.SetInstrument(nil)
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	w.reports = make([][]*m2hew.Report, len(w.mix))
	for i, c := range w.mix {
		id := tr.begin("m2hew.run_trials."+c.name, parent)
		reps, err := m2hew.RunTrials(w.nw, c.cfg, w.trials)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		w.reports[i] = reps
	}
	w.wall = time.Since(t0)
	if w.stats != nil {
		runtime.ReadMemStats(&after)
		w.mallocs = after.Mallocs - before.Mallocs
		w.bytes = after.TotalAlloc - before.TotalAlloc
	}
	return float64(len(w.mix) * w.trials), nil
}

// verify checks every trial against the ground truth and every config's
// reports against its digest; a config whose digest mismatches fails all
// its trials.
func (w *trialsWorkload) verify(chk *checker, traced bool) {
	failed, links := 0, int64(0)
	for i, c := range w.mix {
		bad := 0
		for _, rep := range w.reports[i] {
			if !w.sound(rep) {
				bad++
			}
			links += int64(rep.LinksCovered)
		}
		if !chk.match("digest."+c.name, digestReports(w.reports[i])) {
			bad = len(w.reports[i])
		}
		failed += bad
	}
	if !chk.count("sim.links_covered", links) {
		failed = len(w.mix) * w.trials
	}
	chk.ops(len(w.mix)*w.trials, failed)
	if traced {
		w.tally.add("sim.links_covered", float64(links))
		w.tally.addHarness(w.stats, w.wall)
		w.tally.add("mallocs", float64(w.mallocs))
		w.tally.add("bytes", float64(w.bytes))
	}
}

// sound reports whether every discovered neighbor is a true neighbor with
// common channels inside span(u,v), and coverage is within its target.
func (w *trialsWorkload) sound(rep *m2hew.Report) bool {
	if rep.LinksCovered > rep.LinksTotal || len(rep.Tables) != len(w.truth) {
		return false
	}
	for u, table := range rep.Tables {
		for _, d := range table {
			span, ok := w.truth[u][d.Neighbor]
			if !ok || mask(d.CommonChannels)&^span != 0 {
				return false
			}
		}
	}
	return true
}

// probe replays one pass of the mix trial by trial through m2hew.Run —
// trial t of RunTrials runs with the t-th seed its documented seed stream
// gives — once with a sim.InternalsRecorder attached for the engine
// counts, and once with a delivery counter. Each replay must reproduce the
// RunTrials digest, which shows that attaching either changes no result.
func (w *trialsWorkload) probe(_ *tracer, chk *checker) error {
	failed := 0
	for _, c := range w.mix {
		seeds := trialSeeds(c.cfg.Seed, w.trials)
		recorded := make([]*m2hew.Report, w.trials)
		counted := make([]*m2hew.Report, w.trials)
		for t, seed := range seeds {
			rec := &sim.InternalsRecorder{}
			cfg := c.cfg
			cfg.Seed, cfg.Observer = seed, rec
			rep, err := m2hew.Run(w.nw, cfg)
			if err != nil {
				return fmt.Errorf("%s trial %d: %w", c.name, t, err)
			}
			recorded[t] = rep
			w.pass.Merge(rec.Total)
			cfg.Observer = sim.OnlyEvents(sim.MaskOf(sim.EventDeliver),
				sim.ObserverFunc(func(sim.Event) { w.deliveries++ }))
			if counted[t], err = m2hew.Run(w.nw, cfg); err != nil {
				return fmt.Errorf("%s trial %d: %w", c.name, t, err)
			}
		}
		if !chk.match("digest."+c.name, digestReports(recorded)) {
			failed++
		}
		if !chk.match("digest."+c.name, digestReports(counted)) {
			failed++
		}
	}
	if !chk.count("sim.deliveries", w.deliveries) {
		failed++
	}
	// The replays run without the pool's per-worker scratch, so their
	// table lookups say nothing about RunTrials' scratch reuse.
	w.pass.ScratchTableHits, w.pass.ScratchTableMisses = 0, 0
	if !w.tally.addInternals(w.pass, chk, w.seed) {
		failed++
	}
	chk.ops(0, failed)
	w.tally.addKernels(trialsNodes, 16, (trialsNodes+63)/64, w.seed)
	return nil
}

// trialSeeds returns the per-trial seeds RunTrials derives from seed.
func trialSeeds(seed uint64, trials int) []uint64 {
	seeds := make([]uint64, trials)
	seeds[0] = seed
	src := rng.New(seed)
	for t := 1; t < trials; t++ {
		seeds[t] = src.Uint64()
	}
	return seeds
}

func (w *trialsWorkload) layers() map[string]float64 {
	m := w.tally.medians()
	if slots := float64(w.pass.SlotsSimulated); slots > 0 {
		m["sim.allocs_per_slot"] = m["mallocs"] / slots
		m["sim.alloc_bytes_per_slot"] = m["bytes"] / slots
		m["sim.deliveries_per_slot"] = float64(w.deliveries) / slots
	}
	return m
}

// digestReports hashes everything a report says about a trial.
func digestReports(reps []*m2hew.Report) string {
	d := newDigester()
	for _, r := range reps {
		d.str(string(r.Algorithm))
		d.int(int64(b2i(r.Complete)))
		d.int(int64(r.Slots))
		d.float(r.Duration)
		d.float(r.Bound)
		d.int(int64(r.LinksCovered))
		d.int(int64(r.LinksTotal))
		d.float(r.MeanDutyCycle)
		d.int(int64(r.TerminatedNodes))
		d.float(r.MeanActiveUnits)
		d.int(int64(r.Epochs))
		d.float(r.MeanDiscoveryLatency)
		for _, table := range r.Tables {
			d.int(int64(len(table)))
			for _, e := range table {
				d.int(int64(e.Neighbor))
				for _, c := range e.CommonChannels {
					d.int(int64(c))
				}
				d.str("")
			}
		}
		for _, p := range r.Curve {
			d.float(p.Time)
			d.int(int64(p.Covered))
		}
	}
	return d.sum()
}

// mask packs channel indexes below 64 into a bitmask; the workload's
// universe has 16 channels.
func mask(chs []int) uint64 {
	var m uint64
	for _, c := range chs {
		m |= 1 << uint(c)
	}
	return m
}
