package main

import (
	"testing"
	"time"
)

func TestPercentileSampleRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, %g) = %g, %v; want %g, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	r := newRun()
	r.setPct("p90_ms", seq(99), 0.9)
	if _, ok := r.metrics["p90_ms"]; ok {
		t.Error("p90 of 99 samples was reported")
	}
	r.setPct("p90_ms", seq(100), 0.9)
	if r.samples["p90_ms"] != 100 {
		t.Errorf("sample count %d, want 100", r.samples["p90_ms"])
	}
}

func TestWindowFigures(t *testing.T) {
	// Three 3 s windows; the middle one is a stall (slow and sparse).
	// The rate is the median window's; the percentiles pool every
	// latency, in which the stall's 30 samples weigh little.
	win := func(n int, lat float64) window {
		w := window{dur: 3 * time.Second, ops: float64(n)}
		for i := 0; i < n; i++ {
			w.lat = append(w.lat, lat)
		}
		return w
	}
	ws := []window{win(300, 2), win(30, 50), win(300, 3)}
	r := newRun()
	r.setWindowed(ws)
	if got := r.metrics["ops_per_s"]; got != 100 {
		t.Errorf("ops_per_s = %v, want the median window's 100", got)
	}
	if got := r.metrics["p50_ms"]; got != 3 {
		t.Errorf("p50_ms = %v, want 3", got)
	}
	if got := r.metrics["p90_ms"]; got != 3 {
		t.Errorf("p90_ms = %v, want 3", got)
	}
	if r.samples["p90_ms"] != 630 || r.samples["ops_per_s"] != 3 {
		t.Errorf("sample counts %v, want p90_ms 630 and ops_per_s 3", r.samples)
	}
	// Too few samples for a p90 under the minBeyond rule: left out.
	r = newRun()
	r.setWindowed([]window{win(50, 1)})
	if _, ok := r.metrics["p90_ms"]; ok {
		t.Errorf("p90_ms reported from 50 samples")
	}
}

func TestWindowsIn(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{{0, 1}, {400 * time.Millisecond, 1}, {10 * time.Second, 10}, {10400 * time.Millisecond, 10}, {10600 * time.Millisecond, 11}} {
		if got := windowsIn(c.d); got != c.want {
			t.Errorf("windowsIn(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// Each window's figures are taken to the reference speed with its own
// samples — times multiplied by refSampleMs ÷ their mean, rates divided
// — before the medians; the unscaled figures are kept.
func TestWindowsAtReferenceSpeed(t *testing.T) {
	win := func(lat float64, refs [2]float64) window {
		w := window{dur: time.Second, ops: 100, refs: refs}
		for i := 0; i < 100; i++ {
			w.lat = append(w.lat, lat)
		}
		return w
	}
	// The machine runs at half the reference speed in the first two
	// windows and at twice it in the third; the program's work is the
	// same throughout, so every scaled window reads alike.
	ws := []window{
		win(10, [2]float64{2 * refSampleMs, 2 * refSampleMs}),
		win(10, [2]float64{1.5 * refSampleMs, 2.5 * refSampleMs}),
		win(2.5, [2]float64{refSampleMs / 2, refSampleMs / 2}),
	}
	ws[2].ops = 400
	r := newRun()
	r.setWindowed(ws)
	want := map[string]float64{"ops_per_s": 200, "p50_ms": 5, "p90_ms": 5}
	for name, v := range want {
		if got := r.metrics[name]; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if r.raw["ops_per_s"] != 100 || r.raw["p50_ms"] != 10 {
		t.Errorf("unscaled figures %v, want ops_per_s 100, p50_ms 10", r.raw)
	}
	if len(r.windows) != 3 {
		t.Errorf("%d window records, want 3", len(r.windows))
	}

	r.setSetup([]float64{1, 4, 3}, [][2]float64{{refSampleMs, refSampleMs}, {2 * refSampleMs, 2 * refSampleMs}, {refSampleMs, refSampleMs}})
	if got := r.metrics["setup_s"]; got != 2 {
		t.Errorf("setup_s = %v, want the median of 1, 2, 3", got)
	}
	if got := r.raw["setup_s"]; got != 3 {
		t.Errorf("unscaled setup_s = %v, want 3", got)
	}
}

func TestTimeFactor(t *testing.T) {
	if got := timeFactor([2]float64{}); got != 1 {
		t.Errorf("no samples: %v, want 1", got)
	}
	if got := timeFactor([2]float64{refSampleMs, 3 * refSampleMs}); got != 0.5 {
		t.Errorf("twice as slow: %v, want 0.5", got)
	}
}

// A reference sample takes some time and records it.
func TestMachineSample(t *testing.T) {
	m := newMachine()
	a, b := m.sample(), m.sample()
	if len(m.samples) != 2 || a <= 0 || m.samples[1] != b {
		t.Errorf("samples %v, returned %v and %v", m.samples, a, b)
	}
}
