// Command perfbench is the repository's benchmark. It generates one
// workload from a seed, sets it up several times, runs timed rounds for a
// fixed wall-clock budget, checks every round's output and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload suite --seed 11 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	suite        the E1–E21 reproduction suite at default trials, as ndbench -all runs it
//	trials-sync  m2hew.RunTrials over four sync configs on an n=400 primary-user network
//	scale-100k   warm fixed-horizon tiled sim.RunSync runs on a streamed 100k-node graph
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans the benchmark records
// around its calls into each layer and from the harness instrument and
// sim.InternalsRecorder seams, which only the traced run attaches. Layers
// are timed from outside; nothing in the program is changed to measure it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its workload from the seed;
// setup_s is their median.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	record   string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, observed, err := measure(opts, ref, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if opts.record != "" {
		if err := recordReference(opts.record, opts, observed); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	printSummary(stderr, opts, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 11, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "wall-clock budget of the timed rounds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.short, "short", false, "shrink every workload so a run takes seconds (tests)")
	fs.StringVar(&o.record, "record", "", "write this run's digests and counts into the reference file at this path")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !knownWorkload(o.workload) {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloads, ", "))
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds %v must be positive", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// workload is one benchmark workload. measure times only round; every
// other method runs outside the timed section.
type workload interface {
	// setup builds the workload's inputs from the seed and warms it up,
	// checking the warm-up's outputs through chk.
	setup(tr *tracer, parent int, chk *checker) error
	// prepare readies the next round (fresh protocols, installed seams).
	prepare(tr *tracer) error
	// round runs one timed round and returns the units of work it did.
	round(tr *tracer, parent int) (float64, error)
	// verify checks the last round's outputs through chk.
	verify(chk *checker, traced bool)
	// probe measures the traced run's extra per-layer numbers once the
	// timed rounds are over.
	probe(tr *tracer, chk *checker) error
	// layers returns the per-layer numbers the workload tallied, by
	// catalog name.
	layers() map[string]float64
}

func newWorkload(opts options) workload {
	switch opts.workload {
	case wSuite:
		return newSuite(opts.seed, opts.short)
	case wTrials:
		return newTrials(opts.seed, opts.short)
	default:
		return newScale(opts.seed, opts.short)
	}
}

// measure runs one workload end to end and assembles its result. It also
// returns the checker's observations, which --record writes out.
func measure(opts options, ref reference, log io.Writer) (*result, map[string]string, error) {
	chk := newChecker(ref[referenceKey(opts.workload, opts.short)], opts.seed, log)
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	host, err := newHostProbe()
	if err != nil {
		return nil, nil, err
	}
	defer host.close()

	// Set-up: build the workload from the seed several times, dropping the
	// previous instance (and collecting it, outside the timing) first, so
	// setup_s is a median and every instance's peak memory is alike.
	var w workload
	setups := make([]float64, 0, setupRepeats)
	var probes []float64
	for i := 0; i < setupRepeats; i++ {
		w = nil
		runtime.GC()
		probes = append(probes, host.ms())
		start := time.Now()
		w = newWorkload(opts)
		id := tr.begin("setup", -1)
		err := w.setup(tr, id, chk)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", opts.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := &result{Metrics: make(map[string]metric)}
	if !opts.trace {
		ph, err := timedPhase(w, nil, chk, host, opts.seconds)
		if err != nil {
			return nil, nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		probes = append(probes, ph.probes...)
		fmt.Fprintf(log, "perfbench: host probe ms %.4g (reference %d)\n", probes, probeRefMs)
		k := scale(median(probes))
		res.Metrics["setup_s"] = metric{median(setups) * k, "s"}
		res.Metrics["work_ms_p50"] = metric{median(ph.msPerUnit) * k, "ms"}
		res.Metrics["work_per_s"] = metric{ph.units / ph.seconds / k, "1/s"}
		res.Metrics["peak_rss_mb"] = metric{rss - host.residentMB(), "MB"}
	} else {
		// The untraced half gives the comparison the tracing overhead is
		// taken against; the traced half feeds every per-layer number.
		plain, err := timedPhase(w, nil, chk, host, opts.seconds/2)
		if err != nil {
			return nil, nil, err
		}
		traced, err := timedPhase(w, tr, chk, host, opts.seconds/2)
		if err != nil {
			return nil, nil, err
		}
		if err := w.probe(tr, chk); err != nil {
			return nil, nil, fmt.Errorf("%s probe: %w", opts.workload, err)
		}
		layers := w.layers()
		self := tr.selfTimes()
		for _, d := range perLayer {
			if d.span != "" {
				layers[d.name] = median(self[d.span])
			}
		}
		probeMs := median(append(append(probes, plain.probes...), traced.probes...))
		pm, tm := median(plain.msPerUnit)*scale(probeMs), median(traced.msPerUnit)*scale(probeMs)
		layers["trace.untraced_work_ms_p50"] = pm
		layers["trace.traced_work_ms_p50"] = tm
		layers["trace.overhead_pct"] = 100 * (tm/pm - 1)
		layers["host.probe_ms"] = probeMs
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{layers[d.name], d.unit}
		}
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", opts.workload, opts.seed)
		if err := tr.write(path); err != nil {
			fmt.Fprintln(log, "perfbench: spans not written:", err)
		}
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0 && chk.attempted > 0
	return res, chk.seen, nil
}

// phase holds one timed phase's wall-clock rounds and the host probe
// taken before each.
type phase struct {
	msPerUnit, probes []float64
	units, seconds    float64
}

// timedPhase runs rounds until budget seconds have passed (at least one),
// timing each round and verifying it after its timing stops.
func timedPhase(w workload, tr *tracer, chk *checker, host *hostProbe, budget float64) (phase, error) {
	var ph phase
	start := time.Now()
	for len(ph.msPerUnit) == 0 || time.Since(start).Seconds() < budget {
		ph.probes = append(ph.probes, host.ms())
		if err := w.prepare(tr); err != nil {
			return ph, err
		}
		id := tr.begin("round", -1)
		t0 := time.Now()
		units, err := w.round(tr, id)
		d := time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return ph, err
		}
		w.verify(chk, tr != nil)
		ph.msPerUnit = append(ph.msPerUnit, 1000*d/units)
		ph.units += units
		ph.seconds += d
	}
	fmt.Fprintf(chk.log, "perfbench: %d rounds (traced=%v), wall ms per unit of work: %.5g\n",
		len(ph.msPerUnit), tr != nil, ph.msPerUnit)
	return ph, nil
}

// peakRSSMB returns the process's peak resident set size. The process runs
// one workload, so no other workload's peak is included.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// printSummary writes the result as one "name value unit" line per metric.
func printSummary(w io.Writer, opts options, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v GOMAXPROCS=%d: attempted %d, failed %d\n",
		opts.workload, opts.seed, opts.trace, runtime.GOMAXPROCS(0), res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
