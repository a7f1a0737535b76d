package sparql

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lodify/internal/rdf"
	"lodify/internal/store"
)

// Planner tests: the DP order, the greedy order used above the DP
// bound and the profiled (EXPLAIN ANALYZE) run must agree with each
// other (and with the naive reference evaluator) on every query shape,
// plans must react to the live statistics (hash joins on cartesian
// edges, empty short-circuit on zero-count predicates, estimates from
// the maintained counts), and EXPLAIN ANALYZE must report
// mis-estimation factors per node.

// setMaxDP pins the DP bound for the duration of a test; 0 sends every
// BGP through the greedy order.
func setMaxDP(t *testing.T, n int) {
	t.Helper()
	saved := plannerMaxDP
	plannerMaxDP = n
	t.Cleanup(func() { plannerMaxDP = saved })
}

// plannerBenchStore is the multi-join shape of the planner shapes
// below: users with names and a dense knows graph, posts with
// type/link/maker edges, a sparse vip marker, and a small disconnected
// tag table that rewards a hash join over per-row re-enumeration.
func plannerBenchStore(shards, users int) *store.Store {
	st := store.NewSharded(shards)
	typ := rdf.NewIRI(rdf.RDFType)
	name := rdf.NewIRI(nsFOAF + "name")
	knows := rdf.NewIRI(nsFOAF + "knows")
	maker := rdf.NewIRI(nsFOAF + "maker")
	image := rdf.NewIRI("http://comm.semanticweb.org/core.owl#image-data")
	user := func(i int) rdf.Term { return rdf.NewIRI(nsEX + fmt.Sprintf("user/%d", i)) }
	for i := 0; i < users; i++ {
		st.MustAdd(rdf.Quad{S: user(i), P: name, O: rdf.NewLiteral(fmt.Sprintf("User %d", i))})
		for j := 1; j <= 8; j++ {
			st.MustAdd(rdf.Quad{S: user(i), P: knows, O: user((i*7 + j) % users)})
		}
		if i%50 == 0 {
			st.MustAdd(rdf.Quad{S: user(i), P: exIRI("vip"), O: rdf.NewLiteral("1")})
		}
	}
	for k := 0; k < users*4; k++ {
		post := rdf.NewIRI(nsEX + fmt.Sprintf("post/%d", k))
		st.MustAdd(rdf.Quad{S: post, P: typ, O: rdf.NewIRI(nsSIOCT + "MicroblogPost")})
		st.MustAdd(rdf.Quad{S: post, P: image, O: rdf.NewIRI(fmt.Sprintf("http://cdn.ex.org/%d.jpg", k))})
		st.MustAdd(rdf.Quad{S: post, P: maker, O: user(k % users)})
	}
	for t := 0; t < users/5; t++ {
		st.MustAdd(rdf.Quad{S: exIRI(fmt.Sprintf("tag/%d", t)), P: typ, O: exIRI("Tag")})
	}
	return st
}

const plannerShapePrefix = `
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
`

// plannerShapes reward different plans: vip-chain ordering from the
// sparse marker outward, star-join fixed-order execution, and
// cartesian-tag a hash join for its disconnected pattern.
var plannerShapes = []string{
	`SELECT ?post ?link WHERE {
	  ?post comm:image-data ?link .
	  ?post a sioct:MicroblogPost .
	  ?post foaf:maker ?u .
	  ?u foaf:knows ?f .
	  ?f ex:vip ?flag .
	}`,
	`SELECT ?post ?link ?n WHERE {
	  ?post a sioct:MicroblogPost .
	  ?post comm:image-data ?link .
	  ?post foaf:maker ?u .
	  ?u foaf:name ?n .
	}`,
	`SELECT ?post ?tag WHERE {
	  ?post a sioct:MicroblogPost .
	  ?post comm:image-data ?link .
	  ?tag a ex:Tag .
	}`,
}

// TestCostPlannerMatchesGreedy runs the equivalence corpus and the
// planner shapes on 1- and 8-shard stores, sequential and parallel,
// three ways: the DP plan, the greedy order (DP bound pinned to 0) and
// the DP plan under a profiler. All three must give identical solution
// multisets (row-identical under ORDER BY), and the profiled root must
// count the rows it returned.
func TestCostPlannerMatchesGreedy(t *testing.T) {
	dpBound := plannerMaxDP
	setMaxDP(t, dpBound)
	corpus := []struct {
		st      func(shards int) *store.Store
		queries []string
		prefix  string
		// minNonVacuous is how many queries of the set must return rows
		// (the equivalence corpus mixes two fixtures, so a few of its
		// queries may be empty here).
		minNonVacuous int
	}{
		{
			st:            func(shards int) *store.Store { return shardEquivStore(store.NewSharded(shards)) },
			queries:       append(append([]string{}, equivalenceQueries...), shardEquivQueries...),
			prefix:        benchPrefixes,
			minNonVacuous: len(equivalenceQueries) + len(shardEquivQueries) - 2,
		},
		{
			st:            func(shards int) *store.Store { return plannerBenchStore(shards, 100) },
			queries:       plannerShapes,
			prefix:        benchPrefixes + plannerShapePrefix,
			minNonVacuous: len(plannerShapes),
		},
	}
	for _, shards := range []int{1, 8} {
		for _, set := range corpus {
			e := NewEngine(set.st(shards))
			nonVacuous := 0
			for _, src := range set.queries {
				q, err := Parse(set.prefix + src)
				if err != nil {
					t.Fatalf("parse %q: %v", src, err)
				}
				for _, mode := range []struct {
					name               string
					threshold, workers int
				}{
					{"sequential", 1 << 30, 1},
					{"parallel", 1, 4},
				} {
					setParallel(t, mode.threshold, mode.workers)
					dp, err := e.Exec(q)
					if err != nil {
						t.Fatalf("dp %s exec %q: %v", mode.name, src, err)
					}
					prof, pn, err := e.run(context.Background(), q, true)
					if err != nil {
						t.Fatalf("profiled %s exec %q: %v", mode.name, src, err)
					}
					if pn.root.RowsOut != int64(len(prof.Solutions)) {
						t.Fatalf("shards=%d %s query %q: profiled root rowsOut %d, %d solutions",
							shards, mode.name, src, pn.root.RowsOut, len(prof.Solutions))
					}
					plannerMaxDP = 0
					greedy, err := e.Exec(q)
					plannerMaxDP = dpBound
					if err != nil {
						t.Fatalf("greedy %s exec %q: %v", mode.name, src, err)
					}

					want := canonSolutions(dp.Solutions)
					for _, run := range []struct {
						name string
						res  *Result
					}{{"greedy", greedy}, {"profiled", prof}} {
						name := run.name
						got := canonSolutions(run.res.Solutions)
						if len(got) != len(want) {
							t.Fatalf("shards=%d %s query %q: dp %d solutions, %s %d",
								shards, mode.name, src, len(want), name, len(got))
						}
						for i := range want {
							if want[i] != got[i] {
								t.Fatalf("shards=%d %s query %q: solution %d differs:\n  dp:  %s\n  %s: %s",
									shards, mode.name, src, i, want[i], name, got[i])
							}
						}
						if q.OrderBy == nil {
							continue
						}
						for i := range dp.Solutions {
							a := canonSolutions(dp.Solutions[i : i+1])
							b := canonSolutions(run.res.Solutions[i : i+1])
							if a[0] != b[0] {
								t.Fatalf("shards=%d query %q: ORDER BY row %d differs:\n  dp:  %s\n  %s: %s",
									shards, src, i, a[0], name, b[0])
							}
						}
					}
					if len(want) > 0 {
						nonVacuous++
					}
				}
			}
			if nonVacuous < 2*set.minNonVacuous {
				t.Fatalf("shards=%d: only %d/%d non-vacuous runs", shards, nonVacuous, 2*len(set.queries))
			}
		}
	}
}

// TestCostPlannerMatchesReference checks bare-BGP queries against the
// naive term-space evaluator at 8 shards.
func TestCostPlannerMatchesReference(t *testing.T) {
	st := shardEquivStore(store.NewSharded(8))
	e := NewEngine(st)
	queries := []string{
		`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . }`,
		`SELECT * WHERE { ?c foaf:maker ?u . ?c rev:rating ?r . ?u foaf:name ?n . }`,
		`SELECT * WHERE { ?s ?p ?o . ?s a foaf:Person . }`,
	}
	for _, src := range queries {
		q, err := Parse(benchPrefixes + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := e.Exec(q)
		if err != nil {
			t.Fatalf("exec %q: %v", src, err)
		}
		bgp := q.Where.Children[0].(*BGP)
		want := refEvalBGP(st, bgp.Triples, Solution{})
		got, ref := canonSolutions(res.Solutions), canonSolutions(want)
		if len(got) != len(ref) {
			t.Fatalf("query %q: engine %d solutions, reference %d", src, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("query %q: solution %d differs:\n  engine: %s\n  ref:    %s", src, i, got[i], ref[i])
			}
		}
		if got == nil {
			t.Fatalf("query %q produced no solutions; test is vacuous", src)
		}
	}
}

// plannerShapeStore builds a corpus with deliberately skewed
// cardinalities: a 50-row knows-chain and name series, plus a 5-row
// disconnected tag class — small enough that a hash join must win the
// cartesian edge and a scan everything else.
func plannerShapeStore(t *testing.T, shards int) *store.Store {
	t.Helper()
	st := store.NewSharded(shards)
	name := rdf.NewIRI(nsFOAF + "name")
	knows := rdf.NewIRI(nsFOAF + "knows")
	typ := rdf.NewIRI(rdf.RDFType)
	tagClass := exIRI("Tag")
	add := func(s, p, o rdf.Term) {
		if _, err := st.Add(rdf.Quad{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	user := func(i int) rdf.Term { return rdf.NewIRI(nsEX + fmt.Sprintf("user/%d", i)) }
	for i := 0; i < 50; i++ {
		add(user(i), name, rdf.NewLiteral(fmt.Sprintf("user %d", i)))
		add(user(i), knows, user((i+1)%50))
	}
	for j := 0; j < 5; j++ {
		add(rdf.NewIRI(nsEX+fmt.Sprintf("tag/%d", j)), typ, tagClass)
	}
	return st
}

// bgpChild finds the first BGP node of a static plan.
func bgpChild(t *testing.T, root *PlanNode) *PlanNode {
	t.Helper()
	var find func(n *PlanNode) *PlanNode
	find = func(n *PlanNode) *PlanNode {
		if n.Op == "bgp" {
			return n
		}
		for _, c := range n.Children {
			if got := find(c); got != nil {
				return got
			}
		}
		return nil
	}
	pn := find(root)
	if pn == nil {
		t.Fatalf("no bgp node in plan:\n%s", root.Text())
	}
	return pn
}

// TestPlanChoosesHashJoinForCartesianEdge verifies the DP defers a
// disconnected pattern to the end and joins it with a hash build
// rather than re-scanning it per intermediate row.
func TestPlanChoosesHashJoinForCartesianEdge(t *testing.T) {
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	exp, err := e.Explain(context.Background(),
		benchPrefixes+`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . ?t a <http://ex.org/Tag> }`,
		false)
	if err != nil {
		t.Fatal(err)
	}
	bgp := bgpChild(t, exp.Plan)
	if len(bgp.Children) != 3 {
		t.Fatalf("want 3 join steps, got %d:\n%s", len(bgp.Children), exp.Plan.Text())
	}
	last := bgp.Children[len(bgp.Children)-1]
	if last.Op != "hash-join" || !strings.Contains(last.Detail, "Tag") {
		t.Fatalf("want trailing hash-join on the Tag pattern, got %s [%s]:\n%s",
			last.Op, last.Detail, exp.Plan.Text())
	}
	for _, c := range bgp.Children[:2] {
		if c.Op != "scan" {
			t.Fatalf("want scan for connected edge, got %s [%s]:\n%s", c.Op, c.Detail, exp.Plan.Text())
		}
	}
	// 50 knows-rows x ~1 name each x 5 tags — the HLL distinct estimate
	// wobbles a little, so accept a band around 250.
	if bgp.EstRows < 200 || bgp.EstRows > 320 {
		t.Fatalf("BGP estRows = %d, want ≈250 (stats-driven)", bgp.EstRows)
	}
	// And the estimate must hold up at execution time.
	res, err := e.Exec(mustParse(t, benchPrefixes+`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . ?t a <http://ex.org/Tag> }`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 250 {
		t.Fatalf("got %d solutions, want 250", len(res.Solutions))
	}
}

// TestPlanStatisticsDrivenEstimates: a single-pattern BGP's estRows
// must equal the exact maintained predicate count, and constant
// subjects must divide by the distinct-subject estimate.
func TestPlanStatisticsDrivenEstimates(t *testing.T) {
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	exp, err := e.Explain(context.Background(),
		benchPrefixes+`SELECT * WHERE { ?s foaf:name ?o }`, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := bgpChild(t, exp.Plan).EstRows; got != 50 {
		t.Fatalf("?s foaf:name ?o estRows = %d, want exact count 50", got)
	}
	exp, err = e.Explain(context.Background(),
		benchPrefixes+`SELECT * WHERE { <http://ex.org/user/0> foaf:name ?o } `, false)
	if err != nil {
		t.Fatal(err)
	}
	// 50 names / ~50 distinct subjects ≈ 1; the HLL estimate wobbles,
	// so accept a small band around it.
	if got := bgpChild(t, exp.Plan).EstRows; got < 1 || got > 3 {
		t.Fatalf("const-subject estRows = %d, want ≈1", got)
	}
}

// TestPlanEmptyShortCircuit: a predicate whose maintained count
// dropped back to zero must plan to an empty BGP (estRows 0, no
// steps) and execute to zero rows without error.
func TestPlanEmptyShortCircuit(t *testing.T) {
	st := plannerShapeStore(t, 4)
	gone := exIRI("p/gone")
	q := rdf.Quad{S: exIRI("s"), P: gone, O: exIRI("o")}
	if _, err := st.Add(q); err != nil {
		t.Fatal(err)
	}
	if !st.Remove(q) {
		t.Fatal("remove failed")
	}
	e := NewEngine(st)
	src := benchPrefixes + `SELECT * WHERE { ?s <http://ex.org/p/gone> ?o }`
	exp, err := e.Explain(context.Background(), src, false)
	if err != nil {
		t.Fatal(err)
	}
	bgp := bgpChild(t, exp.Plan)
	if bgp.EstRows != 0 || len(bgp.Children) != 0 {
		t.Fatalf("want empty plan (est 0, no steps), got est=%d steps=%d:\n%s",
			bgp.EstRows, len(bgp.Children), exp.Plan.Text())
	}
	res, err := e.Exec(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Fatalf("got %d solutions from a removed predicate, want 0", len(res.Solutions))
	}
}

// TestExplainAnalyzeMissFactor: an ANALYZE run must attach per-node
// mis-estimation factors — ≈1.0 where the statistics are exact — in
// both the JSON document and the text rendering.
func TestExplainAnalyzeMissFactor(t *testing.T) {
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	exp, err := e.Explain(context.Background(),
		benchPrefixes+`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n }`, true)
	if err != nil {
		t.Fatal(err)
	}
	bgp := bgpChild(t, exp.Plan)
	if bgp.EstRows < 40 || bgp.EstRows > 65 {
		t.Fatalf("analyzed BGP estRows = %d, want ≈50", bgp.EstRows)
	}
	if bgp.RowsOut != 50 {
		t.Fatalf("analyzed BGP rowsOut = %d, want 50", bgp.RowsOut)
	}
	if bgp.MissFactor < 1 || bgp.MissFactor > 1.5 {
		t.Fatalf("near-exact estimate must yield missFactor ≈1, got %v", bgp.MissFactor)
	}
	if len(bgp.Children) != 2 {
		t.Fatalf("want 2 step children under analyzed BGP, got %d:\n%s",
			len(bgp.Children), exp.Plan.Text())
	}
	for _, c := range bgp.Children {
		if c.EstRows <= 0 || c.MissFactor < 1 {
			t.Fatalf("step %s [%s]: est=%d miss=%v, want stats-driven est and miss ≥ 1",
				c.Op, c.Detail, c.EstRows, c.MissFactor)
		}
	}
	raw, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"missFactor"`) {
		t.Fatalf("ANALYZE JSON missing missFactor: %s", raw)
	}
	if txt := exp.Plan.Text(); !strings.Contains(txt, "miss=") {
		t.Fatalf("ANALYZE text missing miss= annotation:\n%s", txt)
	}
}

// TestPlannerFallsBackAboveMaxDP: BGPs above the DP bound take the
// greedy static order and must still answer like the reference
// evaluator, with every step planned.
func TestPlannerFallsBackAboveMaxDP(t *testing.T) {
	setMaxDP(t, 2)
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	src := benchPrefixes + `SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . ?u foaf:name ?m }`
	q := mustParse(t, src)
	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 50 {
		t.Fatalf("greedy order got %d solutions, want 50", len(res.Solutions))
	}
	assertMatchesReference(t, st, q, res)
	exp, err := e.Explain(context.Background(), src, false)
	if err != nil {
		t.Fatal(err)
	}
	if bgp := bgpChild(t, exp.Plan); len(bgp.Children) != 3 {
		t.Fatalf("want 3 greedy-ordered steps, got %d:\n%s", len(bgp.Children), exp.Plan.Text())
	}
}

// TestPlannerWideFrame: a query frame wider than the 64-slot planning
// domain still plans and answers a BGP over its high slots like the
// reference evaluator (those slots just count as unbound for
// estimates), under the DP and the greedy order.
func TestPlannerWideFrame(t *testing.T) {
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	var pad strings.Builder
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&pad, " ?a%02d", i)
	}
	// Slots follow variable names in sorted order, so the ?z* variables
	// of the BGP land on slots 70..73; the ?a* padding is projected but
	// never bound.
	src := benchPrefixes + `SELECT ?zu ?zv ?zn ?zm` + pad.String() +
		` WHERE { ?zu foaf:knows ?zv . ?zv foaf:name ?zn . ?zu foaf:name ?zm }`
	q := mustParse(t, src)
	if fr := queryFrame(q); fr.slots["zu"] < 64 {
		t.Fatalf("?zu on slot %d, want ≥ 64", fr.slots["zu"])
	}
	for _, maxDP := range []int{10, 0} {
		setMaxDP(t, maxDP)
		res, err := e.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != 50 {
			t.Fatalf("maxDP=%d: got %d solutions, want 50", maxDP, len(res.Solutions))
		}
		assertMatchesReference(t, st, q, res)
	}
}

// assertMatchesReference compares res with the naive evaluator over
// the query's first (BGP) child.
func assertMatchesReference(t *testing.T, st *store.Store, q *Query, res *Result) {
	t.Helper()
	bgp := q.Where.Children[0].(*BGP)
	got, ref := canonSolutions(res.Solutions), canonSolutions(refEvalBGP(st, bgp.Triples, Solution{}))
	if len(got) != len(ref) {
		t.Fatalf("engine %d solutions, reference %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("solution %d differs:\n  engine: %s\n  ref:    %s", i, got[i], ref[i])
		}
	}
}
