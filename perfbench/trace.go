package main

// The traced run: an in-process replay of a workload's generated
// request sequence against the replica, with spans recorded by this
// file around the calls into each layer's public functions. The
// program itself is not instrumented. A layer's self time is its span
// minus the part its child spans cover; web and ugc self times
// subtract the inner calls the replay repeats right after the outer
// call (the program's own calls cannot be seen from outside).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"lodify/internal/album"
	"lodify/internal/d2r"
	"lodify/internal/geo"
	"lodify/internal/rdf"
	"lodify/internal/reldb"
	"lodify/internal/sparql"
	"lodify/internal/sparql/matview"
	"lodify/internal/store"
	"lodify/internal/tags"
	"lodify/internal/ugc"
	"lodify/internal/web"
)

// Replay sizes: requests of the browse sequence and uploads of the
// publish sequence replayed in-process.
const (
	browseReplayOps  = 240
	publishReplayOps = 200
	ingestChunkBytes = 1 << 20 // Store.LoadNQuads' chunk size
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	Dur    int64  `json:"durNs"`
	Self   int64  `json:"selfNs"`
}

// tracer keeps spans in memory. When off, span only runs fn, which is
// the untraced side of the overhead measurement. begin and end bracket
// a pass's timed part, with the process's runtime counters read just
// outside it.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span

	start         time.Time
	dur           time.Duration
	before, after map[string]float64
}

// begin collects garbage, so every pass starts from a like heap, reads
// the runtime counters and starts the pass's clock.
func (t *tracer) begin() {
	runtime.GC()
	t.before = runtimeCounters()
	t.start = time.Now()
}

// end stops the pass's clock, reads the runtime counters and returns
// the pass's length.
func (t *tracer) end() time.Duration {
	t.dur = time.Since(t.start)
	t.after = runtimeCounters()
	return t.dur
}

// delta is how much runtime counter k grew over the pass.
func (t *tracer) delta(k string) float64 { return t.after[k] - t.before[k] }

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// span runs fn inside a span named name under parent (0 = root) and
// returns its duration; fn receives the span's id for its children.
func (t *tracer) span(parent int, name string, fn func(id int)) time.Duration {
	if !t.on {
		fn(0)
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.t0)), Dur: int64(d)})
	t.mu.Unlock()
	return d
}

// finish computes every span's self time: its duration minus the union
// of its children's intervals clipped to it.
func (t *tracer) finish() {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.Start + s.Dur})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.Dur - covered(s.Start, s.Start+s.Dur, kids[s.ID])
	}
}

// covered is the length of the union of ivs within [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// stat sums the durations of the spans called name.
func (t *tracer) stat(name string) (total time.Duration, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			total += time.Duration(s.Dur)
			n++
		}
	}
	return total, n
}

func (t *tracer) meanMs(name string) float64 {
	d, n := t.stat(name)
	return ratio(ms(d), float64(n))
}

func (t *tracer) meanUs(name string) float64 { return t.meanMs(name) * 1000 }

// write stores the spans as JSON under the output directory.
func (r *run) writeSpans(t *tracer) error {
	dir := filepath.Join(r.outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": r.workload, "seed": r.seed, "spans": t.spans})
	if err != nil {
		return err
	}
	p := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	fmt.Printf("# spans %s (%d)\n", p, len(t.spans))
	return os.WriteFile(p, b, 0o644)
}

// traced runs the replay untraced twice — a warm-up, then the
// baseline — and then traced, records traced ÷ untraced − 1 as the
// tracing overhead, computes self times and writes the span file. Each
// pass times itself with begin and end, leaving its own set-up and the
// checking of its answers out; the passes differ only in the spans.
// The baseline pass is returned too: its runtime counters give the
// process cost of the untraced work, and proc.gc_cpu_fraction is the
// share of the CPU available to Go over that pass that the garbage
// collector used (runtime/metrics, idle-time marking left out, as in
// MemStats.GCCPUFraction).
func (r *run) traced(replay func(t *tracer) (time.Duration, error)) (on, base *tracer, err error) {
	for i := 0; i < 2; i++ {
		base = newTracer(false)
		if _, err := replay(base); err != nil {
			return nil, nil, err
		}
	}
	on = newTracer(true)
	d, err := replay(on)
	if err != nil {
		return nil, nil, err
	}
	r.set("trace.overhead_ratio", d.Seconds()/base.dur.Seconds()-1)
	r.set("proc.gc_cpu_fraction", ratio(base.delta(gcTotal)-base.delta(gcIdle), base.delta(cpuAvail)))
	on.finish()
	return on, base, r.writeSpans(on)
}

// ---- SPARQL plan statistics from EXPLAIN ANALYZE ----

// planStats accumulates ANALYZE trees of one query family.
type planStats struct {
	mu        sync.Mutex
	n         int
	examined  int64 // rows produced by index scans and hash-join steps
	results   int64
	missMax   float64 // sum over trees of the tree's worst miss factor
	leaseWait int64
	opSelf    map[string]int64
}

func (p *planStats) add(exp *sparql.Explanation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.opSelf == nil {
		p.opSelf = map[string]int64{}
	}
	p.n++
	p.results += int64(exp.Rows)
	p.leaseWait += exp.LeaseWaitNs
	worst := 0.0
	var walk func(n *sparql.PlanNode)
	walk = func(n *sparql.PlanNode) {
		self := n.WallNs
		for _, c := range n.Children {
			self -= c.WallNs
			walk(c)
		}
		p.opSelf[n.Op] += max(self, 0)
		if n.Op == "scan" || n.Op == "hash-join" {
			p.examined += n.RowsOut
		}
		worst = max(worst, n.MissFactor)
	}
	walk(exp.Plan)
	p.missMax += worst
}

// ---- browse ----

// sparqlReplay repeats one SPARQL request's engine calls: Parse and
// ExecCtx timed as the handler would run them, then EXPLAIN ANALYZE
// for the plan statistics.
func sparqlReplay(t *tracer, parent int, e *sparql.Engine, name, src string, ps *planStats) error {
	ctx := context.Background()
	var q *sparql.Query
	var err error
	t.span(parent, "sparql.parse."+name, func(int) { q, err = sparql.Parse(src) })
	if err != nil {
		return err
	}
	t.span(parent, "sparql.exec."+name, func(int) { _, err = e.ExecCtx(ctx, q) })
	if err != nil {
		return err
	}
	var exp *sparql.Explanation
	t.span(parent, "sparql.explain."+name, func(int) { exp, err = e.Explain(ctx, src, true) })
	if err == nil {
		ps.add(exp)
	}
	return err
}

func (r *run) traceBrowse(rep *replica, gens []*browseGen, o *browseOracle) error {
	srv := web.NewServer(rep.platform)
	defer srv.Close()
	var ops []browseOp
	for i := 0; i < browseReplayOps; i++ {
		ops = append(ops, gens[i%len(gens)].next())
	}
	for _, kw := range feedKeywords(rep.world) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/feeds/keyword/"+kw, nil))
	}
	o.target(engineSelect(rep.st))
	var plans map[string]*planStats
	st := rep.st
	bodies := make([]*bytes.Buffer, len(ops))
	t, _, err := r.traced(func(t *tracer) (time.Duration, error) {
		plans = map[string]*planStats{}
		for _, q := range sparqlQueries {
			plans[q] = &planStats{}
		}
		t.begin()
		for i, op := range ops {
			var err error
			t.span(0, "request."+op.kind, func(req int) {
				rec := httptest.NewRecorder()
				hreq := httptest.NewRequest("GET", op.path, nil)
				t.span(req, "web."+op.kind, func(int) { srv.ServeHTTP(rec, hreq) })
				bodies[i] = rec.Body
				if rec.Code != 200 {
					err = fmt.Errorf("replay %s: status %d", op.path, rec.Code)
					return
				}
				switch op.kind {
				case "about":
					c, _ := rep.platform.Content(op.pid)
					err = sparqlReplay(t, req, srv.Engine, "about", web.AboutMashupQuery(c.IRI.Value(), "it"), plans["about"])
				case "album":
					err = sparqlReplay(t, req, srv.Engine, op.album.Kind, albumQuery(op.album), plans[op.album.Kind])
				case "search":
					t.span(req, "store.text_prefix", func(int) { st.TextPrefixSearch(op.query, 0) })
				case "feed":
					v, ok := srv.Views.Get("keyword:" + op.keyword)
					if !ok {
						err = fmt.Errorf("replay: view for %s not registered", op.keyword)
						return
					}
					t.span(req, "matview.solutions", func(int) { v.Solutions() })
				}
			})
			if err != nil {
				return 0, err
			}
		}
		d := t.end()
		if t.on {
			for i, op := range ops {
				r.check(o.check(op, bodies[i].Bytes()))
			}
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	// web self time: the handler minus the engine/store calls replayed
	// for the same request.
	inner := map[string][]string{
		"about":  {"sparql.parse.about", "sparql.exec.about"},
		"search": {"store.text_prefix"},
		"feed":   {"matview.solutions"},
	}
	for kind, names := range inner {
		web, n := t.stat("web." + kind)
		for _, nm := range names {
			d, _ := t.stat(nm)
			web -= d
		}
		r.set("web."+kind+".self_ms", ratio(ms(web), float64(n)))
	}
	var leaseWait int64
	explains := 0
	opSelf := map[string]int64{}
	for _, q := range sparqlQueries {
		p := plans[q]
		r.set("sparql.parse_us."+q, t.meanUs("sparql.parse."+q))
		r.set("sparql.exec_ms."+q, t.meanMs("sparql.exec."+q))
		r.set("sparql.rows_examined_per_result."+q, ratio(float64(p.examined), float64(p.results)))
		r.set("sparql.miss_factor."+q, ratio(p.missMax, float64(p.n)))
		leaseWait += p.leaseWait
		explains += p.n
		for k, v := range p.opSelf {
			opSelf[k] += v
		}
	}
	for _, k := range opKinds {
		r.set("sparql.op."+k+".self_ms", ratio(float64(opSelf[k])/1e6, float64(explains)))
	}
	r.set("store.lease_wait_ms", ratio(float64(leaseWait)/1e6, float64(explains)))
	r.set("store.text_prefix_us", t.meanUs("store.text_prefix"))
	r.set("matview.solutions_us", t.meanUs("matview.solutions"))
	return nil
}

// ---- publish ----

func (r *run) tracePublish(ups []upload) error {
	ups = ups[:min(len(ups), publishReplayOps)]
	var words, cands, autos int
	var foldBefore, foldAfter [2]int64
	var feedPlans *planStats
	t, _, err := r.traced(func(t *tracer) (time.Duration, error) {
		words, cands, autos = 0, 0, 0
		feedPlans = &planStats{}
		// Each pass publishes the same uploads, so each gets a fresh
		// replica.
		rep, err := buildReplica(r.seed)
		if err != nil {
			return 0, err
		}
		srv := web.NewServer(rep.platform)
		defer srv.Close()
		views := map[string]*matview.View{}
		for _, kw := range feedKeywords(rep.world) {
			if views[kw], err = srv.Views.Register("keyword:"+kw, album.ByKeywordSemantic(nil, kw).Query); err != nil {
				return 0, err
			}
		}
		srv.Views.Sync()
		foldBefore = foldCounts(srv.Views)
		var mu sync.Mutex
		errs := make([]error, len(ups))
		var wg sync.WaitGroup
		t.begin()
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := k; i < len(ups); i += clients {
					errs[i] = publishReplay(t, rep, srv, views, ups[i], feedPlans, func(res *annotateCounts) {
						mu.Lock()
						words += res.words
						cands += res.cands
						autos += res.autos
						mu.Unlock()
					})
				}
			}(k)
		}
		wg.Wait()
		d := t.end()
		foldAfter = foldCounts(srv.Views)
		if t.on {
			for _, err := range errs {
				r.check(err)
			}
			return d, nil
		}
		return d, errors.Join(errs...)
	})
	if err != nil {
		return err
	}
	pub, n := t.stat("ugc.publish")
	ann, _ := t.stat("annotate")
	r.set("ugc.publish_ms", ratio(ms(pub), float64(n)))
	r.set("ugc.self_ms", ratio(ms(pub-ann), float64(n)))
	r.set("annotate.ms", t.meanMs("annotate"))
	r.set("annotate.candidates_per_word", ratio(float64(cands), float64(words)))
	r.set("annotate.auto_ratio", ratio(float64(autos), float64(words)))
	r.set("matview.sync_ms", t.meanMs("matview.sync"))
	r.set("matview.solutions_us", t.meanUs("matview.solutions"))
	deltas, fulls := foldAfter[0]-foldBefore[0], foldAfter[1]-foldBefore[1]
	r.set("matview.fold_ratio", ratio(float64(deltas), float64(deltas+fulls)))
	r.set("store.lease_wait_ms", ratio(float64(feedPlans.leaseWait)/1e6, float64(feedPlans.n)))
	return nil
}

type annotateCounts struct{ words, cands, autos int }

func foldCounts(reg *matview.Registry) [2]int64 {
	var out [2]int64
	for _, v := range reg.Stats() {
		out[0] += v.DeltaApplies
		out[1] += v.FullReevals
	}
	return out
}

// publishReplay repeats one upload: Platform.Publish, the annotation
// it ran, the view maintenance that makes it visible, the view read
// that finds it, and an ANALYZE of the feed query for the lease wait
// it meets beside concurrent commits.
func publishReplay(t *tracer, rep *replica, srv *web.Server, views map[string]*matview.View, u upload, ps *planStats, count func(*annotateCounts)) error {
	var err error
	t.span(0, "upload", func(req int) {
		taken, _ := time.Parse(time.RFC3339, u.TakenAt)
		up := ugc.Upload{User: u.User, Filename: u.Filename, Title: u.Title, Tags: u.Tags,
			TakenAt: taken, GPS: &geo.Point{Lon: u.Lon, Lat: u.Lat}}
		var c *ugc.Content
		t.span(req, "ugc.publish", func(int) { c, err = rep.platform.Publish(up) })
		if err != nil {
			return
		}
		_, plain := tags.Split(u.Tags)
		t.span(req, "annotate", func(int) {
			res := rep.platform.Pipeline.Annotate(context.Background(), u.Title, plain)
			ac := &annotateCounts{words: len(res.Words), autos: len(res.AutoAnnotations())}
			for _, a := range res.Annotations {
				ac.cands += a.CandidateCount
			}
			count(ac)
		})
		t.span(req, "matview.sync", func(int) { srv.Views.Sync() })
		var sols []sparql.Solution
		t.span(req, "matview.solutions", func(int) { sols = views[u.keyword].Solutions() })
		found := false
		for _, s := range sols {
			found = found || s["resource"] == c.IRI
		}
		if !found {
			err = fmt.Errorf("replay: %s not in view %s after Sync", c.IRI.Value(), u.keyword)
			return
		}
		var exp *sparql.Explanation
		t.span(req, "sparql.explain.feed", func(int) {
			exp, err = srv.Engine.Explain(context.Background(), album.ByKeywordSemantic(nil, u.keyword).Query, true)
		})
		if err == nil {
			ps.add(exp)
		}
	})
	return err
}

// ---- ingest ----

// The runtime/metrics counters a replay pass is bracketed with. The
// cpu-seconds classes are snapshots taken at the end of each GC cycle.
const (
	allocObjects = "/gc/heap/allocs:objects"
	allocBytes   = "/gc/heap/allocs:bytes"
	gcTotal      = "/cpu/classes/gc/total:cpu-seconds"
	gcIdle       = "/cpu/classes/gc/mark/idle:cpu-seconds"
	cpuAvail     = "/cpu/classes/total:cpu-seconds"
)

// runtimeCounters reads the process-wide runtime/metrics the proc.*
// metrics of the in-process replay come from, and the process's CPU
// time (getrusage) under "cpu".
func runtimeCounters() map[string]float64 {
	names := []string{allocObjects, allocBytes, gcTotal, gcIdle, cpuAvail}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := map[string]float64{}
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[x.Name] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[x.Name] = x.Value.Float64()
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	out["cpu"] = float64(time.Duration(ru.Utime.Nano() + ru.Stime.Nano()))
	return out
}

func (r *run) traceIngest(db *reldb.DB, a *archive) error {
	var ops int
	var heapPerQuad, dumpQuads float64
	t, base, err := r.traced(func(t *tracer) (time.Duration, error) {
		t.begin()
		mapping := d2r.CoppermineMapping(d2rBaseURI)
		var n int
		var err error
		t.span(0, "d2r.dump", func(int) { n, err = d2r.DumpNTriples(io.Discard, db, mapping) })
		if err != nil {
			return 0, err
		}
		dumpQuads = float64(n)
		opts := rdf.BulkOptions{ChunkSize: ingestChunkBytes}
		t.span(0, "rdf.parse", func(int) {
			_, err = rdf.ParseNQuadsChunked(bytes.NewReader(a.data), opts, func([]rdf.Quad) error { return nil })
		})
		if err != nil {
			return 0, err
		}
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		heap0 := m.HeapAlloc
		st := store.New()
		bl := st.NewBulkLoader()
		t.span(0, "store.load", func(id int) {
			_, err = rdf.ParseNQuadsChunked(bytes.NewReader(a.data), opts, func(b []rdf.Quad) error {
				var aerr error
				t.span(id, "store.bulk_apply", func(int) { _, aerr = bl.AddBatch(b) })
				return aerr
			})
		})
		if err != nil {
			return 0, err
		}
		if bl.Added() != len(a.sorted) || st.Len() != len(a.sorted) {
			err = fmt.Errorf("ingest replay: loaded %d, Len %d, want %d", bl.Added(), st.Len(), len(a.sorted))
		}
		if t.on {
			r.check(err)
		}
		if err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m)
		heapPerQuad = float64(int64(m.HeapAlloc)-int64(heap0)) / float64(st.Len())
		out := bytes.NewBuffer(make([]byte, 0, len(a.data)+len(a.data)/8))
		t.span(0, "store.dump", func(int) { err = st.DumpNQuads(out) })
		if err == nil {
			err = a.checkDump(out.Bytes(), false)
		}
		if t.on {
			r.check(err)
		}
		if err != nil {
			return 0, err
		}
		nw := rdf.NewNQuadsWriter(io.Discard)
		t.span(0, "rdf.write_pass", func(id int) {
			_, err = rdf.ParseNQuadsChunked(bytes.NewReader(a.data), opts, func(b []rdf.Quad) error {
				var werr error
				t.span(id, "rdf.write", func(int) {
					for _, q := range b {
						if werr = nw.WriteQuad(q); werr != nil {
							return
						}
					}
					werr = nw.Flush()
				})
				return werr
			})
		})
		ops = bl.Added() + st.Len()
		return t.end(), err
	})
	if err != nil {
		return err
	}
	d2rD, _ := t.stat("d2r.dump")
	r.set("d2r.dump_quads_per_s", ratio(dumpQuads, d2rD.Seconds()))
	parse, _ := t.stat("rdf.parse")
	r.set("rdf.parse_s", parse.Seconds())
	apply, _ := t.stat("store.bulk_apply")
	r.set("store.bulk_apply_s", apply.Seconds())
	dump, _ := t.stat("store.dump")
	r.set("store.dump_s", dump.Seconds())
	r.set("ingest.dump_quads_per_s", ratio(float64(len(a.sorted)), dump.Seconds()))
	write, _ := t.stat("rdf.write")
	r.set("rdf.write_s", write.Seconds())
	r.set("ingest.heap_bytes_per_quad", heapPerQuad)
	// The process cost of the untraced baseline pass; an op is one
	// quad moved.
	r.set("proc.cpu_ms_per_op", ratio(base.delta("cpu")/1e6, float64(ops)))
	r.set("proc.allocs_per_op", ratio(base.delta(allocObjects), float64(ops)))
	r.set("proc.bytes_per_op", ratio(base.delta(allocBytes), float64(ops)))
	return nil
}
