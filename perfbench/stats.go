package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the reporting rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so a
// tail figure never rests on one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs and whether it
// may be reported under the minBeyond rule.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the middle value of xs (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowLen is the target length of the windows a measured phase is
// cut into for the end-to-end statistics.
const windowLen = time.Second

// window is one slice of a measured phase: its length, the operations
// completed in it, their latencies in ms, and the reference samples
// taken right before and right after it (calib.go).
type window struct {
	dur  time.Duration
	ops  float64
	lat  []float64
	refs [2]float64
}

// windowsIn is the number of windows of about windowLen a phase of
// length d is cut into.
func windowsIn(d time.Duration) int {
	return max(1, int((d+windowLen/2)/windowLen))
}

// windowFigures returns ops_per_s as the median of the windows' rates,
// so a burst of noise on the shared machine spoils a window or two
// rather than the run's figure, and p50_ms and p90_ms over the latencies
// of all windows, where the minBeyond rule leaves them out when too few
// samples lie beyond. With scaled set, each window's rate and latencies
// are first taken to the reference speed with its own reference
// samples. n is the sample count behind each figure.
func windowFigures(ws []window, scaled bool) (figs map[string]float64, n map[string]int) {
	figs, n = map[string]float64{}, map[string]int{}
	var rates, lat []float64
	for _, w := range ws {
		f := 1.0
		if scaled {
			f = timeFactor(w.refs)
		}
		if w.dur > 0 {
			rates = append(rates, w.ops/w.dur.Seconds()/f)
		}
		for _, l := range w.lat {
			lat = append(lat, l*f)
		}
	}
	if len(rates) > 0 {
		figs["ops_per_s"], n["ops_per_s"] = median(rates), len(rates)
	}
	for name, p := range map[string]float64{"p50_ms": 0.5, "p90_ms": 0.9} {
		if v, ok := percentile(lat, p); ok {
			figs[name], n[name] = v, len(lat)
		}
	}
	return figs, n
}

// setWindowed reports the windows' figures at the reference speed and
// keeps the unscaled ones for the detail file.
func (r *run) setWindowed(ws []window) {
	figs, n := windowFigures(ws, true)
	for name, v := range figs {
		r.set(name, v)
		r.samples[name] = n[name]
	}
	raw, _ := windowFigures(ws, false)
	for name, v := range raw {
		r.raw[name] = v
	}
	for _, w := range ws {
		rec := map[string]any{"s": w.dur.Seconds(), "ops": w.ops, "refsMs": w.refs}
		for name, p := range map[string]float64{"p50": 0.5, "p90": 0.9} {
			if v, ok := percentile(w.lat, p); ok {
				rec[name] = v
			}
		}
		r.windows = append(r.windows, rec)
	}
}

// setSetup reports setup_s as the median of the set-up times, each
// taken to the reference speed with the samples around it.
func (r *run) setSetup(times []float64, refs [][2]float64) {
	var scaled []float64
	for i, t := range times {
		scaled = append(scaled, t*timeFactor(refs[i]))
	}
	r.set("setup_s", median(scaled))
	r.samples["setup_s"] = len(times)
	r.raw["setup_s"] = median(times)
	r.setupTimes, r.setupRefs = times, refs
}
