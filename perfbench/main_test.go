package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

func specOf(defs []metricDef) []specMetric {
	out := make([]specMetric, len(defs))
	for i, d := range defs {
		out[i] = specMetric{Name: d.name, Unit: d.unit, Better: d.better}
	}
	return out
}

// TestSpecMatchesCatalog keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestSpecMatchesCatalog(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !strings.Contains(w.Why, "seed") {
			t.Errorf("workload %s: why %q does not name its reference seed", w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	e2e := make([]specMetric, len(spec.EndToEnd))
	for i, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		e2e[i] = specMetric{Name: m.Name, Unit: m.Unit, Better: m.Better}
	}
	if want := specOf(endToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %+v, program prints %+v", e2e, want)
	}
	if want := specOf(perLayer); !reflect.DeepEqual(spec.PerLayer, want) {
		block, _ := json.Marshal(want)
		t.Errorf("BENCHMARK.json per_layer differs from the catalog; want %s", block)
	}
	for _, d := range perLayer {
		if d.moves == "" {
			t.Errorf("per-layer %s names no end-to-end metric it moves", d.name)
		}
	}
}

// TestReferenceSeeds requires committed references for at least two seeds
// per workload, so a gain can be re-checked on a seed not used to make it.
func TestReferenceSeeds(t *testing.T) {
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		seeds := make(map[string]bool)
		for key := range ref[w] {
			seed, name, _ := strings.Cut(key, "/")
			if strings.HasPrefix(name, "digest.") || strings.HasPrefix(name, "warmup.") {
				seeds[seed] = true
			}
		}
		if len(seeds) < 2 {
			t.Errorf("%s: reference digests for %d seeds, want at least 2", w, len(seeds))
		}
	}
}

// runShort runs one short workload and returns its result line.
func runShort(t *testing.T, ref reference, workload string, trace bool) (*result, map[string]string) {
	t.Helper()
	opts := options{workload: workload, seed: 3, seconds: 0.05, trace: trace, short: true}
	var log bytes.Buffer
	res, seen, err := measure(opts, ref, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	if testing.Verbose() {
		io.Copy(os.Stderr, &log)
	}
	return res, seen
}

// TestShortWorkloads runs every workload in short mode, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, with their units, and that a corrupted reference digest is
// counted as a failed operation.
func TestShortWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, seen := runShort(t, reference{}, w, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: %s unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("trace=%v: %s = %v", trace, m.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace {
					continue
				}
				corrupt := make(map[string]string)
				for key, v := range seen {
					if _, name, _ := strings.Cut(key, "/"); strings.HasPrefix(name, "digest.") {
						corrupt[key] = "0" + v[1:]
					}
				}
				if len(corrupt) == 0 {
					t.Fatal("the run checked no digest")
				}
				bad, _ := runShort(t, reference{referenceKey(w, true): corrupt}, w, false)
				if bad.Correct || bad.Failed == 0 {
					t.Errorf("corrupted reference: correct=%v failed=%d, want a failure", bad.Correct, bad.Failed)
				}
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "b", Start: 3, End: 6},  // overlaps a
		{ID: 3, Parent: 0, Name: "a", Start: 8, End: 12}, // runs past its parent
		{ID: 4, Parent: 1, Name: "c", Start: 2, End: 3},
		{ID: 5, Parent: 0, Name: "open", Start: 9, End: -1},
	}}
	got := tr.selfTimes()
	want := map[string][]float64{"round": {3}, "a": {2, 4}, "b": {3}, "c": {1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestParseFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "suite", "--trace", "2"},
		{"--workload", "suite", "--seconds", "0"},
		{"--workload", "suite", "extra"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, err := parseFlags([]string{"--workload", "scale-100k", "--seed", "7", "--seconds", "12", "--trace", "1"}, io.Discard)
	if err != nil || o.workload != wScale || o.seed != 7 || o.seconds != 12 || !o.trace {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
}
