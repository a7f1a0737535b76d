package sparql

import (
	"context"
	"strings"
	"testing"

	"lodify/internal/obs"
)

// albumJoinQuery is the 3-join shape of the §2.3 album reads: content
// typed, linked to its media, attributed to a maker, joined to the
// maker's name.
const albumJoinQuery = `SELECT ?c ?u ?n ?r WHERE {
  ?c a sioct:MicroblogPost .
  ?c foaf:maker ?u .
  ?c rev:rating ?r .
  ?u foaf:name ?n .
}`

func TestStripExplain(t *testing.T) {
	cases := []struct {
		in      string
		rest    string
		explain bool
		analyze bool
	}{
		{"SELECT * WHERE { ?s ?p ?o }", "SELECT * WHERE { ?s ?p ?o }", false, false},
		{"EXPLAIN SELECT * WHERE { ?s ?p ?o }", "SELECT * WHERE { ?s ?p ?o }", true, false},
		{"explain analyze ASK { ?s ?p ?o }", "ASK { ?s ?p ?o }", true, true},
		{"  Explain\n Analyze\n SELECT ?x WHERE { ?x ?p ?o }", "SELECT ?x WHERE { ?x ?p ?o }", true, true},
		// EXPLAINSELECT is not the keyword; neither is a variable ?explain.
		{"EXPLAINSELECT * WHERE { ?s ?p ?o }", "EXPLAINSELECT * WHERE { ?s ?p ?o }", false, false},
	}
	for _, c := range cases {
		rest, explain, analyze := StripExplain(c.in)
		if strings.TrimSpace(rest) != c.rest || explain != c.explain || analyze != c.analyze {
			t.Errorf("StripExplain(%q) = (%q, %v, %v), want (%q, %v, %v)",
				c.in, rest, explain, analyze, c.rest, c.explain, c.analyze)
		}
	}
}

func TestNormalizeQuery(t *testing.T) {
	if got := NormalizeQuery("SELECT *\n\tWHERE  { ?s ?p ?o }"); got != "SELECT * WHERE { ?s ?p ?o }" {
		t.Fatalf("normalize = %q", got)
	}
	long := NormalizeQuery(strings.Repeat("x ", 3000))
	if len(long) > 2060 || !strings.HasSuffix(long, "...") {
		t.Fatalf("long query not capped: len=%d", len(long))
	}
}

// TestExplainStaticPlan: EXPLAIN without ANALYZE never executes — it
// reports the plan shape with statistics-derived row estimates only,
// per join step too, also for a BGP above the DP bound.
func TestExplainStaticPlan(t *testing.T) {
	e := NewEngine(benchStore())
	exp, err := e.Explain(context.Background(), benchPrefixes+albumJoinQuery, false)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Analyze || exp.Result != nil || exp.Rows != 0 {
		t.Fatalf("static explain executed: %+v", exp)
	}
	if exp.Plan == nil || len(exp.Plan.Children) == 0 {
		t.Fatalf("no plan tree: %+v", exp.Plan)
	}
	bgp := findNode(exp.Plan, "bgp")
	if bgp == nil {
		t.Fatalf("plan has no bgp node:\n%s", exp.Plan.Text())
	}
	if bgp.EstRows <= 0 {
		t.Fatalf("bgp estimate missing: %+v", bgp)
	}
	if bgp.Evals != 0 || bgp.WallNs != 0 {
		t.Fatalf("static plan carries runtime figures: %+v", bgp)
	}

	// Eleven patterns exceed plannerMaxDP: the greedy order still
	// yields one estimated step per pattern.
	wide := benchPrefixes + `SELECT * WHERE {
	  ?c a sioct:MicroblogPost . ?c foaf:maker ?u . ?c rev:rating ?r .
	  ?c <http://ex.org/p/title> ?ti . ?c <http://ex.org/p/tag> ?tag . ?u foaf:name ?n .
	  ?u a foaf:Person . ?u foaf:knows ?f . ?f foaf:name ?fn .
	  ?f a foaf:Person . ?c2 foaf:maker ?f .
	}`
	if plannerMaxDP >= 11 {
		t.Fatalf("plannerMaxDP = %d: the wide BGP no longer exceeds it", plannerMaxDP)
	}
	exp, err = e.Explain(context.Background(), wide, false)
	if err != nil {
		t.Fatal(err)
	}
	bgp = findNode(exp.Plan, "bgp")
	if bgp == nil || bgp.EstRows <= 0 || len(bgp.Children) != 11 {
		t.Fatalf("wide BGP: want estRows and 11 step children:\n%s", exp.Plan.Text())
	}
	for _, c := range bgp.Children {
		if (c.Op != "scan" && c.Op != "hash-join") || c.EstRows <= 0 {
			t.Fatalf("wide BGP step %s [%s] est=%d, want scan/hash-join with estRows",
				c.Op, c.Detail, c.EstRows)
		}
	}
}

// TestExplainAnalyzeRowCountEquivalence is the acceptance check: the
// profiled EXPLAIN ANALYZE run of the 3-join album query returns the
// same solutions as the unprofiled run, and the profile tree's
// root rows-out agrees with the result.
func TestExplainAnalyzeRowCountEquivalence(t *testing.T) {
	e := NewEngine(benchStore())
	src := benchPrefixes + albumJoinQuery

	plain, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Solutions) == 0 {
		t.Fatal("query is vacuous on the bench store")
	}

	exp, err := e.Explain(context.Background(), src, true)
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Analyze || exp.Result == nil {
		t.Fatalf("analyze did not execute: %+v", exp)
	}
	if exp.Rows != len(plain.Solutions) {
		t.Fatalf("analyze rows = %d, plain run = %d", exp.Rows, len(plain.Solutions))
	}
	if exp.Plan.RowsOut != int64(exp.Rows) {
		t.Fatalf("root rows-out = %d, result rows = %d", exp.Plan.RowsOut, exp.Rows)
	}
	want, got := canonSolutions(plain.Solutions), canonSolutions(exp.Result.Solutions)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("solution %d differs under profiling:\n  plain: %s\n  analyze: %s", i, want[i], got[i])
		}
	}
	// The profiled tree carries runtime evidence: the BGP ran once,
	// held at least one lease, and produced the joined rows.
	bgp := findNode(exp.Plan, "bgp")
	if bgp == nil || bgp.Evals == 0 {
		t.Fatalf("bgp node unprofiled:\n%s", exp.Plan.Text())
	}
	if exp.Leases == 0 {
		t.Fatal("no leases attributed")
	}
	if !strings.Contains(exp.Plan.Text(), "bgp") {
		t.Fatal("text rendering lost the bgp node")
	}
}

// TestSlowlogCapturesProfileAtThresholdZero: with the threshold at 0
// every query is captured, with its normalized text and plan profile.
func TestSlowlogCapturesProfileAtThresholdZero(t *testing.T) {
	prev := obs.SlowQueries.Threshold()
	obs.SlowQueries.SetThreshold(0)
	defer obs.SlowQueries.SetThreshold(prev)

	e := NewEngine(benchStore())
	if _, err := e.Query(benchPrefixes + albumJoinQuery); err != nil {
		t.Fatal(err)
	}
	recent := obs.SlowQueries.Recent(1)
	if len(recent) != 1 {
		t.Fatalf("slowlog captured %d entries", len(recent))
	}
	sq := recent[0]
	if !strings.Contains(sq.Query, "MicroblogPost") || strings.Contains(sq.Query, "\n") {
		t.Fatalf("query text not normalized: %q", sq.Query)
	}
	if len(sq.Profile) == 0 || !strings.Contains(string(sq.Profile), `"op"`) {
		t.Fatalf("profile missing from capture: %s", sq.Profile)
	}
	if sq.DurNs <= 0 || sq.Rows == 0 || sq.Leases == 0 {
		t.Fatalf("capture lacks runtime figures: %+v", sq)
	}
}

// TestProfilingDisabledByDefault: with the slow-query log off (the
// library default), queries run with a nil profiler.
func TestProfilingDisabledByDefault(t *testing.T) {
	if obs.SlowQueries.Enabled() {
		t.Skip("process-wide slowlog enabled by another test")
	}
	e := NewEngine(benchStore())
	res, prof, err := e.run(context.Background(), mustParse(t, benchPrefixes+albumJoinQuery), false)
	if err != nil {
		t.Fatal(err)
	}
	if prof != nil {
		t.Fatal("profiler allocated without opt-in")
	}
	if len(res.Solutions) == 0 {
		t.Fatal("query is vacuous")
	}
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func findNode(n *PlanNode, op string) *PlanNode {
	if n == nil {
		return nil
	}
	if n.Op == op {
		return n
	}
	for _, c := range n.Children {
		if f := findNode(c, op); f != nil {
			return f
		}
	}
	return nil
}
