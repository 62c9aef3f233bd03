package main

import (
	"fmt"
	"sync"
	"time"

	"m2hew/internal/experiment"
	"m2hew/internal/harness"
)

// suiteWorkload runs the E1–E21 reproduction suite at default trials the
// way ndbench -all does: experiment.All() on harness.Run, one experiment
// per pool item. An operation is one experiment; its output is its table's
// markdown, checked by digest.
//
// The set-up warm-up runs the quick suite on the run's seed. The timed
// rounds always run the suite at its reference seed: the full suite's cost
// follows the experiment seed (E17's network decides its horizons), with
// an interquartile spread of about 13% over seeds 1–12 on a 2-core
// machine, on top of the machine's own run-to-run spread.
type suiteWorkload struct {
	seed    uint64
	opts    experiment.Options
	entries []experiment.Entry
	tables  []*experiment.Table
	stats   *harnessStats
	wall    time.Duration
	tally   samples
}

// suiteSeed is the experiment seed of the timed suite rounds.
const suiteSeed = 11

func newSuite(seed uint64, short bool) *suiteWorkload {
	return &suiteWorkload{
		seed:  seed,
		opts:  experiment.Options{Seed: suiteSeed, Quick: short},
		tally: make(samples),
	}
}

// setup lists the experiments and warms up with one quick suite on the
// run's seed, which runs every experiment's code once before the first
// timed round. The warm-up's tables are checked like a round's, under
// their own keys.
func (s *suiteWorkload) setup(_ *tracer, _ int, chk *checker) error {
	s.entries = experiment.All()
	tables, err := s.runSuite(experiment.Options{Seed: s.seed, Quick: true}, nil, -1)
	if err != nil {
		return err
	}
	s.check(chk, s.seed, "warmup.", tables)
	return nil
}

func (s *suiteWorkload) prepare(tr *tracer) error {
	s.stats = nil
	if tr != nil {
		s.stats = new(harnessStats)
	}
	return nil
}

func (s *suiteWorkload) round(tr *tracer, parent int) (float64, error) {
	t0 := time.Now()
	tables, err := s.runSuite(s.opts, tr, parent)
	s.wall = time.Since(t0)
	s.tables = tables
	return 1, err
}

// runSuite runs every experiment on the harness pool, each under a span
// when tr is non-nil. In a traced round the instrument is installed from
// inside the first pool item, after the outer batch has read the (still
// empty) instrument slot: the experiment items are timed by the
// benchmark's own spans, and the instrument sees only the trial batches
// the experiments start.
func (s *suiteWorkload) runSuite(opts experiment.Options, tr *tracer, parent int) ([]*experiment.Table, error) {
	stats := s.stats
	if tr == nil {
		stats = nil
	}
	var install sync.Once
	tables := make([]*experiment.Table, len(s.entries))
	err := harness.Run(len(s.entries), func(i int) error {
		if stats != nil {
			install.Do(func() { harness.SetInstrument(stats) })
		}
		id := tr.begin("experiment."+s.entries[i].ID, parent)
		t, err := s.entries[i].Run(opts)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", s.entries[i].ID, err)
		}
		tables[i] = t
		return nil
	})
	harness.SetInstrument(nil)
	return tables, err
}

func (s *suiteWorkload) verify(chk *checker, traced bool) {
	if traced {
		s.tally.addHarness(s.stats, s.wall)
		if !s.tally.addInternals(s.stats.internals, chk, suiteSeed) {
			chk.ops(0, 1)
		}
	}
	s.check(chk, suiteSeed, "digest.", s.tables)
}

// check matches each table's markdown digest, as an output of seed, under
// prefix+ID; one experiment is one operation.
func (s *suiteWorkload) check(chk *checker, seed uint64, prefix string, tables []*experiment.Table) {
	failed := 0
	for i, e := range s.entries {
		t := tables[i]
		d := newDigester()
		d.str(t.Markdown())
		if t.ID != e.ID || !chk.matchSeed(seed, prefix+e.ID, d.sum()) {
			failed++
		}
	}
	chk.ops(len(s.entries), failed)
}

func (s *suiteWorkload) probe(*tracer, *checker) error { return nil }

func (s *suiteWorkload) layers() map[string]float64 { return s.tally.medians() }
