// Command perfbench is LODify's benchmark ledger. It runs one named
// workload against the real program — the cmd/lodify server for
// browse and publish, the store's public API for ingest — checks every
// answer with oracles that accept each answer SPARQL allows, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of an in-process traced replay) as one JSON line. End-to-end
// figures are given at a reference machine speed measured in the same
// run, which takes out most of a shared machine's noise (calib.go).
//
// It is normally started through perfbench/run.sh, which builds the
// server and this program from the checkout first:
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":2481,"failed":0,"metrics":{"p50_ms":{"value":7.1,"unit":"ms"},...}}
//
// The exit status is 0 only when every answer was right.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, each for its own unit of work (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
}

// sparqlQueries are the query families the sparql layer metrics are
// kept for; opKinds the ANALYZE operator kinds their plans contain.
var (
	sparqlQueries = []string{"about", "e3a", "e3b", "e3c"}
	opKinds       = []string{"select", "subquery", "union", "optional", "bgp", "scan", "hash-join"}
)

// perLayer lists the traced run's metrics. A layer a workload does not
// reach reports 0 on it.
func perLayer() []metricSpec {
	out := []metricSpec{
		{"web.about.self_ms", "ms"},
		{"web.search.self_ms", "ms"},
		{"web.feed.self_ms", "ms"},
	}
	for _, q := range sparqlQueries {
		out = append(out,
			metricSpec{"sparql.parse_us." + q, "us"},
			metricSpec{"sparql.exec_ms." + q, "ms"},
			metricSpec{"sparql.rows_examined_per_result." + q, "ratio"},
			metricSpec{"sparql.miss_factor." + q, "ratio"},
		)
	}
	for _, k := range opKinds {
		out = append(out, metricSpec{"sparql.op." + k + ".self_ms", "ms"})
	}
	return append(out,
		metricSpec{"store.text_prefix_us", "us"},
		metricSpec{"store.lease_wait_ms", "ms"},
		metricSpec{"store.bulk_apply_s", "s"},
		metricSpec{"store.dump_s", "s"},
		metricSpec{"rdf.parse_s", "s"},
		metricSpec{"rdf.write_s", "s"},
		metricSpec{"annotate.ms", "ms"},
		metricSpec{"annotate.candidates_per_word", "ratio"},
		metricSpec{"annotate.auto_ratio", "ratio"},
		metricSpec{"ugc.publish_ms", "ms"},
		metricSpec{"ugc.self_ms", "ms"},
		metricSpec{"matview.solutions_us", "us"},
		metricSpec{"matview.sync_ms", "ms"},
		metricSpec{"matview.fold_ratio", "ratio"},
		metricSpec{"matview.live_fold_ratio", "ratio"},
		metricSpec{"d2r.dump_quads_per_s", "1/s"},
		metricSpec{"proc.cpu_ms_per_op", "ms"},
		metricSpec{"proc.allocs_per_op", "count"},
		metricSpec{"proc.bytes_per_op", "B"},
		metricSpec{"proc.gc_cpu_fraction", "ratio"},
		metricSpec{"route.about.p50_ms", "ms"},
		metricSpec{"route.album.p50_ms", "ms"},
		metricSpec{"route.search.p50_ms", "ms"},
		metricSpec{"route.feed.p50_ms", "ms"},
		metricSpec{"route.visible.p50_ms", "ms"},
		metricSpec{"ingest.dump_quads_per_s", "1/s"},
		metricSpec{"ingest.heap_bytes_per_quad", "B"},
		metricSpec{"trace.overhead_ratio", "ratio"},
	)
}

// run is the state of one benchmark invocation.
type run struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string
	outDir    string

	attempted, failed int
	failures          []string
	metrics           map[string]float64
	// samples is the sample count behind each reported percentile or
	// median, keyed by metric name.
	samples     map[string]int
	serverFlags []string
	// windows describe the windows behind the end-to-end figures.
	windows []map[string]any
	// machine takes the reference samples the end-to-end figures are
	// scaled by (calib.go); setupRefs are those around each set-up, and
	// raw keeps the figures unscaled.
	machine    *machine
	setupTimes []float64
	setupRefs  [][2]float64
	raw        map[string]float64
	// stop is closed on SIGINT/SIGTERM so a live server is reaped.
	stop chan struct{}
}

func newRun() *run {
	return &run{metrics: map[string]float64{}, samples: map[string]int{}, stop: make(chan struct{}),
		machine: newMachine(), raw: map[string]float64{}}
}

// check counts one attempted operation; a non-nil err (transport
// failure, bad status or wrong answer) counts it as failed.
func (r *run) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setPct records the p-quantile of xs under name, with its sample
// count, when the minBeyond rule allows reporting it.
func (r *run) setPct(name string, xs []float64, p float64) {
	if v, ok := percentile(xs, p); ok {
		r.metrics[name] = v
		r.samples[name] = len(xs)
	}
}

var workloads = map[string]func(*run) error{
	"browse":  runBrowse,
	"publish": runPublish,
	"ingest":  runIngest,
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	r := newRun()
	var trace int
	flag.StringVar(&r.workload, "workload", "", "workload: browse, publish or ingest")
	flag.Int64Var(&r.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&r.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process replay reporting per-layer metrics")
	flag.StringVar(&r.serverBin, "server", "", "path of the built cmd/lodify binary")
	flag.StringVar(&r.outDir, "out", ".bench_build/perfbench", "directory for result and span files")
	flag.Parse()
	r.trace = trace == 1
	fn, ok := workloads[r.workload]
	if !ok || r.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload browse|publish|ingest, -seconds >= 1, -trace 0|1")
		return 2
	}
	if r.serverBin == "" && r.workload != "ingest" {
		fmt.Fprintln(os.Stderr, "perfbench: -server is required for", r.workload)
		return 2
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() { <-sig; close(r.stop) }()

	if r.trace {
		for _, m := range perLayer() {
			r.metrics[m.name] = 0
		}
	}
	err := fn(r)
	if err == nil && r.attempted == 0 {
		err = errors.New("no operation was attempted")
	}
	specs := endToEnd
	if r.trace {
		specs = perLayer()
	}
	out := map[string]any{}
	for _, m := range specs {
		v, ok := r.metrics[m.name]
		if !ok && err == nil {
			err = fmt.Errorf("metric %s was not measured (too few samples?)", m.name)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := r.failed == 0
	if err := r.writeDetail(out, correct); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// writeDetail stores the self-describing result next to the build:
// environment, server flags, seed, sample counts and error rate.
func (r *run) writeDetail(metrics map[string]any, correct bool) error {
	names := make([]string, 0, len(r.samples))
	for n := range r.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	doc := map[string]any{
		"workload":    r.workload,
		"seed":        r.seed,
		"seconds":     r.seconds,
		"trace":       r.trace,
		"env":         describeEnv(),
		"serverFlags": r.serverFlags,
		"samples":     r.samples,
		"windows":     r.windows,
		"reference": map[string]any{
			"sampleMs": refSampleMs, "samplesMs": r.machine.samples,
			"setupS": r.setupTimes, "setupRefsMs": r.setupRefs,
		},
		"unscaled":   r.raw,
		"correct":    correct,
		"attempted":  r.attempted,
		"failed":     r.failed,
		"error_rate": ratio(float64(r.failed), float64(r.attempted)),
		"metrics":    metrics,
		"finished":   time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(r.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, btoi(r.trace))
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		return err
	}
	fmt.Printf("# detail %s\n", filepath.Join(dir, name))
	fmt.Printf("# env %s\n", mustJSON(doc["env"]))
	fmt.Printf("# server flags %v; samples %v; error_rate %g\n", r.serverFlags, mustJSON(r.samples), doc["error_rate"])
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
