package main

import (
	"fmt"
	"runtime"

	"m2hew/internal/core"
	"m2hew/internal/radio"
	"m2hew/internal/rng"
	"m2hew/internal/sim"
	"m2hew/internal/topology"
)

// scaleWorkload simulates a large network on the tiled path: a streamed
// GeometricConnectedCSR graph with AssignUniformK(8,4) channels and a
// radius-safe tiling, run for a fixed horizon per round with fresh
// protocols and a warm scratch. An operation is one run.
type scaleWorkload struct {
	seed          uint64
	nodes         int
	radius        float64
	tiles         int
	nw            *topology.Network
	tl            *topology.Tiling
	scratch       *sim.SyncScratch
	protos        []sim.SyncProtocol
	counters      []*countingUniform
	rec           *sim.InternalsRecorder
	res           *sim.SyncResult
	mallocs, size uint64
	tally         samples
}

const (
	scaleDeltaEst = 16
	// scaleHorizon is the slots per timed run: long enough that one run's
	// time is steady, short enough for many runs per measurement.
	scaleHorizon = 32
)

func newScale(seed uint64, short bool) *scaleWorkload {
	w := &scaleWorkload{seed: seed, nodes: 100_000, radius: 0.007, tiles: 1024, tally: make(samples)}
	if short {
		w.nodes, w.radius, w.tiles = 5_000, 0.03, 64
	}
	return w
}

// setup generates the graph, assigns channels, tiles it, builds protocols
// and makes the first (cold) run, which derives the engine's network
// tables into the scratch the timed runs then reuse.
func (w *scaleWorkload) setup(tr *tracer, parent int, chk *checker) error {
	r := rng.New(w.seed)
	id := tr.begin("topology.generate", parent)
	nw, err := topology.GeometricConnectedCSR(w.nodes, w.radius, r, 100)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("topology.assign", parent)
	err = topology.AssignUniformK(nw, 8, 4, r)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("topology.tiling", parent)
	tl, err := topology.TilingByRadius(nw, w.radius, w.tiles)
	tr.end(id)
	if err != nil {
		return err
	}
	w.nw, w.tl, w.scratch = nw, tl, sim.NewSyncScratch()
	if err := w.prepare(tr); err != nil {
		return err
	}
	cold := w.config()
	cold.MaxSlots = 1
	id = tr.begin("sim.first_run", parent)
	_, err = w.run(cold)
	tr.end(id)
	if err != nil {
		return err
	}
	ok := chk.match("warmup.coverage", w.digest())
	chk.ops(1, b2i(!ok))
	return nil
}

// prepare builds fresh protocols, seeded the same every round so every
// run repeats exactly. The traced run wraps them to count deliveries and
// attaches an InternalsRecorder.
func (w *scaleWorkload) prepare(tr *tracer) error {
	id := tr.begin("core.protocols", -1)
	defer tr.end(id)
	root := rng.New(w.seed ^ 0x5ca1e)
	w.protos = make([]sim.SyncProtocol, w.nodes)
	w.counters, w.rec = nil, nil
	if tr != nil {
		w.counters = make([]*countingUniform, w.nodes)
		w.rec = &sim.InternalsRecorder{}
	}
	for u := range w.protos {
		p, err := core.NewSyncUniform(w.nw.Avail(topology.NodeID(u)), scaleDeltaEst, root.Split())
		if err != nil {
			return fmt.Errorf("node %d: %w", u, err)
		}
		w.protos[u] = p
		if w.counters != nil {
			w.counters[u] = &countingUniform{SyncUniform: p}
			w.protos[u] = w.counters[u]
		}
	}
	return nil
}

func (w *scaleWorkload) config() sim.SyncConfig {
	cfg := sim.SyncConfig{
		Network: w.nw, Protocols: w.protos, MaxSlots: scaleHorizon,
		RunToMaxSlots: true, Scratch: w.scratch, Tiling: w.tl,
	}
	if w.rec != nil {
		cfg.Observer = w.rec
	}
	return cfg
}

func (w *scaleWorkload) run(cfg sim.SyncConfig) (float64, error) {
	res, err := sim.RunSync(cfg)
	if err != nil {
		return 0, err
	}
	w.res = res
	return float64(res.SlotsSimulated), nil
}

func (w *scaleWorkload) round(tr *tracer, parent int) (float64, error) {
	cfg := w.config()
	if tr == nil {
		return w.run(cfg)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin("sim.run", parent)
	slots, err := w.run(cfg)
	tr.end(id)
	runtime.ReadMemStats(&after)
	w.mallocs, w.size = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return slots, err
}

// verify checks the run's coverage against its digest and, traced, that
// every slot ran on the tiled path and the engine counts repeat.
func (w *scaleWorkload) verify(chk *checker, traced bool) {
	cov := w.res.Coverage
	links := int64(cov.TargetSize() - cov.Remaining())
	ok := chk.match("digest.coverage", w.digest())
	ok = chk.count("sim.links_covered", links) && ok
	if traced {
		in := w.rec.Last
		ok = in.TiledSlots == in.SlotsSimulated && in.SlotsSimulated == int64(w.res.SlotsSimulated) && ok
		ok = w.tally.addInternals(in, chk, w.seed) && ok
		var delivered int64
		for _, c := range w.counters {
			delivered += c.delivered
		}
		ok = chk.count("sim.deliveries", delivered) && ok
		slots := float64(w.res.SlotsSimulated)
		w.tally.add("sim.deliveries_per_slot", float64(delivered)/slots)
		w.tally.add("sim.links_covered", float64(links))
		w.tally.add("sim.allocs_per_slot", float64(w.mallocs)/slots)
		w.tally.add("sim.alloc_bytes_per_slot", float64(w.size)/slots)
	}
	chk.ops(1, b2i(!ok))
}

// digest hashes the last run's coverage record.
func (w *scaleWorkload) digest() string {
	cov := w.res.Coverage
	d := newDigester()
	d.int(int64(w.res.SlotsSimulated))
	d.int(int64(cov.TargetSize()))
	d.int(int64(cov.Remaining()))
	for _, p := range cov.Curve() {
		d.float(p.Time)
		d.int(int64(p.Covered))
	}
	return d.sum()
}

// probe times the public network derivations the engine repeats per run
// and the word kernels on masks as wide as a median tile's halo.
func (w *scaleWorkload) probe(tr *tracer, _ *checker) error {
	id := tr.begin("topology.inbound_candidates", -1)
	cands := w.nw.InboundCandidates()
	tr.end(id)
	id = tr.begin("topology.discoverable_links", -1)
	links := w.nw.DiscoverableLinks()
	tr.end(id)
	if len(cands) != w.nodes || len(links) == 0 {
		return fmt.Errorf("derivations: %d candidate rows, %d links", len(cands), len(links))
	}
	var halo, members []float64
	for t := 0; t < w.tl.Tiles(); t++ {
		if n := len(w.tl.TileNodes(t)); n > 0 {
			halo = append(halo, float64(w.tl.HaloWords(t)))
			members = append(members, float64(n))
		}
	}
	w.tally.addKernels(int(median(members)), 8, int(median(halo)), w.seed)
	return nil
}

func (w *scaleWorkload) layers() map[string]float64 { return w.tally.medians() }

// countingUniform counts the messages delivered to one node. Each node is
// delivered to by one tile worker at a time, so the count needs no lock.
type countingUniform struct {
	*core.SyncUniform
	delivered int64
}

func (c *countingUniform) Deliver(msg radio.Message) {
	c.delivered++
	c.SyncUniform.Deliver(msg)
}
