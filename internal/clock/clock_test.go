package clock

import (
	"math"
	"testing"
	"testing/quick"

	"m2hew/internal/rng"
)

func TestConstantRate(t *testing.T) {
	c := Constant(0.05)
	for k := 0; k < 10; k++ {
		if c.Rate(k) != 0.05 {
			t.Fatalf("Constant rate at %d = %v", k, c.Rate(k))
		}
	}
	if c.Bound() != 0.05 {
		t.Fatalf("bound %v", c.Bound())
	}
	if Constant(-0.1).Bound() != 0.1 {
		t.Fatal("negative constant bound not absolute")
	}
}

func TestIdeal(t *testing.T) {
	if Ideal.Rate(3) != 0 || Ideal.Bound() != 0 {
		t.Fatal("Ideal clock drifts")
	}
}

func TestRandomWalkBounded(t *testing.T) {
	w, err := NewRandomWalk(0.1, 0.03, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10000; k++ {
		r := w.Rate(k)
		if math.Abs(r) > 0.1+1e-12 {
			t.Fatalf("walk rate %v at slot %d exceeds bound", r, k)
		}
	}
}

func TestRandomWalkDeterministicPerInstance(t *testing.T) {
	w, err := NewRandomWalk(0.1, 0.03, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Query out of order; memoization must make repeated queries stable.
	r9 := w.Rate(9)
	r3 := w.Rate(3)
	if w.Rate(9) != r9 || w.Rate(3) != r3 {
		t.Fatal("RandomWalk.Rate not stable across calls")
	}
}

func TestRandomWalkValidation(t *testing.T) {
	if _, err := NewRandomWalk(-0.1, 0.01, rng.New(1)); err == nil {
		t.Fatal("negative delta accepted")
	}
	if _, err := NewRandomWalk(1.0, 0.01, rng.New(1)); err == nil {
		t.Fatal("delta = 1 accepted")
	}
	if _, err := NewRandomWalk(0.1, -0.01, rng.New(1)); err == nil {
		t.Fatal("negative step accepted")
	}
}

func TestSinusoidal(t *testing.T) {
	s, err := NewSinusoidal(0.1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Rate(0); math.Abs(got) > 1e-15 {
		t.Fatalf("sin phase 0 rate %v", got)
	}
	if got := s.Rate(2); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("quarter-period rate %v, want 0.1", got)
	}
	for k := 0; k < 100; k++ {
		if math.Abs(s.Rate(k)) > 0.1+1e-12 {
			t.Fatalf("rate %v exceeds amplitude", s.Rate(k))
		}
	}
	if _, err := NewSinusoidal(0.1, 0, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewSinusoidal(2, 8, 0); err == nil {
		t.Fatal("amplitude 2 accepted")
	}
}

func TestAlternating(t *testing.T) {
	a, err := NewAlternating(0.1, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	wantPos := []bool{true, true, true, false, false, false, true}
	for k, pos := range wantPos {
		got := a.Rate(k)
		if pos && got != 0.1 || !pos && got != -0.1 {
			t.Fatalf("alternating rate at %d = %v", k, got)
		}
	}
	inv, err := NewAlternating(0.1, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Rate(0) != -0.1 {
		t.Fatal("inverted alternation does not start negative")
	}
	if _, err := NewAlternating(0.1, 0, false); err == nil {
		t.Fatal("zero hold accepted")
	}
}

func TestTimelineValidation(t *testing.T) {
	if _, err := NewTimeline(0, 0, 3, Ideal); err == nil {
		t.Fatal("zero frame length accepted")
	}
	if _, err := NewTimeline(0, -1, 3, Ideal); err == nil {
		t.Fatal("negative frame length accepted")
	}
	if _, err := NewTimeline(0, 1, 0, Ideal); err == nil {
		t.Fatal("zero slots accepted")
	}
	tl, err := NewTimeline(5, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Start() != 5 || tl.FrameLen() != 1 || tl.SlotsPerFrame() != 3 {
		t.Fatal("accessors wrong")
	}
}

func TestTimelineIdealClock(t *testing.T) {
	tl, err := NewTimeline(10, 3, 3, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal clock: slot i starts at 10 + i.
	for i := 0; i < 20; i++ {
		if got := tl.SlotStart(i); math.Abs(got-float64(10+i)) > 1e-12 {
			t.Fatalf("slot %d starts at %v, want %d", i, got, 10+i)
		}
	}
	s, e := tl.FrameInterval(2)
	if math.Abs(s-16) > 1e-12 || math.Abs(e-19) > 1e-12 {
		t.Fatalf("frame 2 = [%v,%v), want [16,19)", s, e)
	}
	s, e = tl.FrameSlotInterval(1, 2)
	if math.Abs(s-15) > 1e-12 || math.Abs(e-16) > 1e-12 {
		t.Fatalf("frame 1 slot 2 = [%v,%v), want [15,16)", s, e)
	}
}

func TestTimelinePositiveDriftShortensFrames(t *testing.T) {
	tl, err := NewTimeline(0, 7, 3, Constant(0.1))
	if err != nil {
		t.Fatal(err)
	}
	s, e := tl.FrameInterval(0)
	want := 7 / 1.1
	if math.Abs((e-s)-want) > 1e-12 {
		t.Fatalf("frame length %v, want %v", e-s, want)
	}
}

func TestTimelineEq10Envelope(t *testing.T) {
	// Paper Eq. (10): frame real length in [L/(1+δ), L/(1−δ)] for any drift
	// process bounded by δ.
	const (
		delta = MaxAsyncDrift
		l     = 2.5
	)
	procs := map[string]DriftProcess{
		"ideal": Ideal,
		"pos":   Constant(delta),
		"neg":   Constant(-delta),
	}
	if w, err := NewRandomWalk(delta, 0.05, rng.New(3)); err == nil {
		procs["walk"] = w
	} else {
		t.Fatal(err)
	}
	if s, err := NewSinusoidal(delta, 13, 0.4); err == nil {
		procs["sine"] = s
	} else {
		t.Fatal(err)
	}
	if a, err := NewAlternating(delta, 2, false); err == nil {
		procs["alt"] = a
	} else {
		t.Fatal(err)
	}
	lo, hi := l/(1+delta), l/(1-delta)
	for name, p := range procs {
		tl, err := NewTimeline(0, l, 3, p)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 200; f++ {
			s, e := tl.FrameInterval(f)
			if e-s < lo-1e-9 || e-s > hi+1e-9 {
				t.Fatalf("%s: frame %d real length %v outside [%v, %v]", name, f, e-s, lo, hi)
			}
		}
	}
}

func TestTimelineMonotone(t *testing.T) {
	w, err := NewRandomWalk(MaxAsyncDrift, 0.1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTimeline(-4, 1.5, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	prev := tl.SlotStart(0)
	for i := 1; i < 3000; i++ {
		cur := tl.SlotStart(i)
		if cur <= prev {
			t.Fatalf("slot starts not strictly increasing at %d: %v <= %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestSlotIntervalContiguous(t *testing.T) {
	w, err := NewRandomWalk(0.1, 0.02, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTimeline(0, 1, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, e := tl.SlotInterval(i)
		s, _ := tl.SlotInterval(i + 1)
		if e != s {
			t.Fatalf("gap between slot %d end %v and slot %d start %v", i, e, i+1, s)
		}
	}
}

func TestFullFramesBy(t *testing.T) {
	tl, err := NewTimeline(0, 2, 3, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rt   float64
		want int
	}{
		{-1, 0},
		{0, 0},
		{1.9, 0},
		{2, 1},
		{3.5, 1},
		{4, 2},
		{20, 10},
	}
	for _, tt := range cases {
		if got := tl.FullFramesBy(tt.rt); got != tt.want {
			t.Errorf("FullFramesBy(%v) = %d, want %d", tt.rt, got, tt.want)
		}
	}
}

func TestFirstFullFrameAfter(t *testing.T) {
	tl, err := NewTimeline(10, 2, 3, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rt   float64
		want int
	}{
		{0, 0},
		{10, 0},
		{10.1, 1},
		{12, 1},
		{12.5, 2},
	}
	for _, tt := range cases {
		if got := tl.FirstFullFrameAfter(tt.rt); got != tt.want {
			t.Errorf("FirstFullFrameAfter(%v) = %d, want %d", tt.rt, got, tt.want)
		}
	}

	// Differential check against a linear scan from frame 0, on drifting
	// timelines, at boundary-exact times and just inside and outside the
	// relative epsilon. Each query runs on a fresh timeline (cold cache) and
	// on one shared timeline whose cache earlier queries already grew.
	drifts := []struct {
		name  string
		drift func() DriftProcess
	}{
		{"randomwalk", func() DriftProcess {
			w, err := NewRandomWalk(MaxAsyncDrift, 0.03, rng.New(4242))
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
		{"alternating", func() DriftProcess {
			a, err := NewAlternating(MaxAsyncDrift, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
	}
	r := rng.New(7)
	for _, d := range drifts {
		name := d.name
		newTL := func() *Timeline {
			tl, err := NewTimeline(3.25, 1.5, 3, d.drift())
			if err != nil {
				t.Fatal(err)
			}
			return tl
		}
		ref, warm := newTL(), newTL()
		var queries []float64
		for i := 0; i < 200; i++ {
			start, _ := ref.SlotInterval(r.IntN(1500))
			eps := 1e-9 * math.Max(1, math.Abs(start))
			queries = append(queries, start, start-eps/2, start+eps/2, start-2*eps, start+2*eps,
				r.UniformFloat64(0, start+5))
		}
		for _, rt := range queries {
			want := firstFullFrameAfterLinear(ref, rt)
			if got := newTL().FirstFullFrameAfter(rt); got != want {
				t.Errorf("%s: cold FirstFullFrameAfter(%v) = %d, linear scan %d", name, rt, got, want)
			}
			if got := warm.FirstFullFrameAfter(rt); got != want {
				t.Errorf("%s: warm FirstFullFrameAfter(%v) = %d, linear scan %d", name, rt, got, want)
			}
		}
	}
}

// firstFullFrameAfterLinear is the reference FirstFullFrameAfter: scan
// frame starts from frame 0 under the same relative-epsilon rule.
func firstFullFrameAfterLinear(tl *Timeline, rt float64) int {
	if rt <= tl.Start() {
		return 0
	}
	eps := 1e-9 * math.Max(1, math.Abs(rt))
	for f := 0; ; f++ {
		if start, _ := tl.FrameInterval(f); start >= rt-eps {
			return f
		}
	}
}

func TestNegativeIndicesPanic(t *testing.T) {
	tl, err := NewTimeline(0, 1, 3, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"SlotStart":     func() { tl.SlotStart(-1) },
		"FrameInterval": func() { tl.FrameInterval(-1) },
		"FrameSlot":     func() { tl.FrameSlotInterval(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad index did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: for arbitrary bounded drift processes, the cumulative local time
// after n slots maps to a real duration within the paper's Eq. (1) envelope.
func TestDriftEnvelopeProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, deltaRaw uint8, nRaw uint8) bool {
		delta := float64(deltaRaw%40) / 100 // δ ∈ [0, 0.39]
		n := int(nRaw%60) + 1
		w, err := NewRandomWalk(delta, delta/2+0.001, rng.New(seed))
		if err != nil {
			return false
		}
		tl, err := NewTimeline(0, 3, 3, w)
		if err != nil {
			return false
		}
		local := float64(n) // n slots of local length 1 each (L=3, 3 slots)
		real := tl.SlotStart(n) - tl.Start()
		lo := local / (1 + delta)
		hi := local / (1 - delta)
		return real >= lo-1e-9 && real <= hi+1e-9
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTimelineSlotStart(b *testing.B) {
	w, err := NewRandomWalk(0.1, 0.01, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	tl, err := NewTimeline(0, 1, 3, w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tl.SlotStart(i % 100000)
	}
}

func TestLocalRealConversions(t *testing.T) {
	w, err := NewRandomWalk(MaxAsyncDrift, 0.04, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTimeline(5, 3, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	// Local zero maps to the start.
	if got := tl.LocalToReal(0); math.Abs(got-5) > 1e-12 {
		t.Fatalf("LocalToReal(0) = %v, want 5", got)
	}
	// Round trips across a range of instants.
	for i := 0; i < 500; i++ {
		local := float64(i) * 0.37
		rt := tl.LocalToReal(local)
		back := tl.RealToLocal(rt)
		if math.Abs(back-local) > 1e-6 {
			t.Fatalf("round trip %v -> %v -> %v", local, rt, back)
		}
	}
	// Slot boundaries agree with SlotStart.
	for i := 0; i < 50; i++ {
		local := float64(i) * 1.0 // slot length = 1 local unit
		if got, want := tl.LocalToReal(local), tl.SlotStart(i); math.Abs(got-want) > 1e-9 {
			t.Fatalf("LocalToReal(slot %d) = %v, want %v", i, got, want)
		}
	}
	// Eq. (1): the local/real envelope holds through the conversion.
	for _, local := range []float64{1, 10, 100} {
		real := tl.LocalToReal(local) - tl.Start()
		if real < local/(1+MaxAsyncDrift)-1e-9 || real > local/(1-MaxAsyncDrift)+1e-9 {
			t.Fatalf("local %v mapped to real %v outside drift envelope", local, real)
		}
	}
}

func TestConversionPanics(t *testing.T) {
	tl, err := NewTimeline(2, 3, 3, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"negative local": func() { tl.LocalToReal(-1) },
		"before start":   func() { tl.RealToLocal(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
