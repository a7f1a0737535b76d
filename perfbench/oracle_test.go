package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"lodify/internal/sparql"
	"lodify/internal/web"
)

func TestCheckAboutAcceptsAnyLegalSubset(t *testing.T) {
	const city = "http://linkedgeodata.org/ontology/City"
	arm := map[aboutRow]int{}
	var rows []aboutRow
	for _, l := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		r := aboutRow{Label: l, Type: city, Resource: "http://x/" + l}
		arm[r] = 1
		rows = append(rows, r)
	}
	// "Turin"@en and "Turin"@de look alike as JSON values.
	twin := aboutRow{Label: "Turin", Type: city, Resource: "http://x/turin"}
	arm[twin] = 2
	want := aboutArms{city: arm, "http://rdfs.org/sioc/types#MicroblogPost": {}}

	for _, pick := range [][]int{{0, 1, 2, 3, 4}, {6, 5, 4, 3, 2}, {0, 2, 4, 6, 1}} {
		var got []aboutRow
		for _, i := range pick {
			got = append(got, rows[i])
		}
		if err := checkAbout(want, got); err != nil {
			t.Errorf("legal subset %v rejected: %v", pick, err)
		}
	}
	if err := checkAbout(want, []aboutRow{twin, twin, rows[0], rows[1], rows[2]}); err != nil {
		t.Errorf("two look-alike rows rejected: %v", err)
	}
	bad := []struct {
		name string
		rows []aboutRow
	}{
		{"row from outside the arm", []aboutRow{rows[0], rows[1], rows[2], rows[3], {Label: "z", Type: city, Resource: "http://x/z"}}},
		{"too few rows", rows[:4]},
		{"too many rows", rows[:6]},
		{"row repeated beyond its RDF rows", []aboutRow{rows[0], rows[0], rows[1], rows[2], rows[3]}},
		{"row of an unknown arm", append(rows[:5:5], aboutRow{Type: "http://x/Other"})},
	}
	for _, b := range bad {
		if err := checkAbout(want, b.rows); err == nil {
			t.Errorf("%s accepted", b.name)
		}
	}
}

func TestCheckAlbumAcceptsTiesInAnyOrder(t *testing.T) {
	want := map[albumRow]bool{
		{"r1", "l1", "5"}: true,
		{"r2", "l2", "3"}: true,
		{"r3", "l3", "3"}: true,
		{"r4", "l4", "1"}: true,
	}
	row := func(r, l, p string) map[string]string {
		return map[string]string{"resource": r, "link": l, "points": p}
	}
	for _, order := range [][]map[string]string{
		{row("r1", "l1", "5"), row("r2", "l2", "3"), row("r3", "l3", "3"), row("r4", "l4", "1")},
		{row("r1", "l1", "5"), row("r3", "l3", "3"), row("r2", "l2", "3"), row("r4", "l4", "1")},
	} {
		if err := checkAlbum("e3c", want, order); err != nil {
			t.Errorf("tie order rejected: %v", err)
		}
	}
	for name, rows := range map[string][]map[string]string{
		"ascending":   {row("r4", "l4", "1"), row("r2", "l2", "3"), row("r3", "l3", "3"), row("r1", "l1", "5")},
		"missing row": {row("r1", "l1", "5"), row("r2", "l2", "3"), row("r3", "l3", "3")},
		"foreign row": {row("r1", "l1", "5"), row("r2", "l2", "3"), row("r3", "l3", "3"), row("r9", "l9", "1")},
		"duplicate":   {row("r1", "l1", "5"), row("r2", "l2", "3"), row("r2", "l2", "3"), row("r4", "l4", "1")},
	} {
		if err := checkAlbum("e3c", want, rows); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// e3a/e3b rows are a set: any order.
	set := map[albumRow]bool{{"r1", "l1", ""}: true, {"r2", "l2", ""}: true}
	if err := checkAlbum("e3a", set, []map[string]string{{"resource": "r2", "link": "l2"}, {"resource": "r1", "link": "l1"}}); err != nil {
		t.Errorf("e3a reordered rows rejected: %v", err)
	}
}

func TestSameSet(t *testing.T) {
	want := map[string]bool{"a": true, "b": true}
	if err := sameSet([]string{"b", "a"}, want); err != nil {
		t.Errorf("reordered set rejected: %v", err)
	}
	for _, got := range [][]string{{"a"}, {"a", "b", "c"}, {"a", "a", "b"}} {
		if sameSet(got, want) == nil {
			t.Errorf("%v accepted", got)
		}
	}
}

var (
	testRepOnce sync.Once
	testRep     *replica
	testRepErr  error
)

func sharedReplica(t *testing.T) *replica {
	testRepOnce.Do(func() { testRep, testRepErr = buildReplica(3) })
	if testRepErr != nil {
		t.Fatal(testRepErr)
	}
	return testRep
}

// The oracles must accept what the engine answers on the replica, and
// a wrong answer must count as a failed operation.
func TestOraclesAgainstEngine(t *testing.T) {
	rep := sharedReplica(t)
	e := sparql.NewEngine(rep.st)
	ctx := context.Background()
	for pid := int64(1); pid <= 40; pid += 13 {
		c, _ := rep.platform.Content(pid)
		res, err := e.QueryCtx(ctx, web.AboutMashupQuery(c.IRI.Value(), "it"))
		if err != nil {
			t.Fatal(err)
		}
		var rows []aboutRow
		for _, s := range res.Solutions {
			rows = append(rows, aboutRow{s["lbl"].Value(), s["entType"].Value(), s["desc"].Value(), s["others"].Value()})
		}
		want := expectAbout(rep.st, c.IRI, "it")
		if err := checkAbout(want, rows); err != nil {
			t.Errorf("pid %d: engine answer rejected: %v", pid, err)
		}
		if len(rows) > 0 {
			rows[0].Resource += "-wrong"
			r := newRun()
			r.check(checkAbout(want, rows))
			if r.failed != 1 || r.attempted != 1 {
				t.Errorf("pid %d: injected wrong row not counted as failed (%d/%d)", pid, r.failed, r.attempted)
			}
		}
	}
	for _, kind := range albumKinds {
		a := albumSpec{Kind: kind, Monument: "Mole Antonelliana", User: "user01"}
		res, err := e.QueryCtx(ctx, albumQuery(a))
		if err != nil {
			t.Fatal(err)
		}
		var rows []map[string]string
		for _, s := range res.Solutions {
			m := map[string]string{}
			for k, v := range s {
				m[k] = v.Value()
			}
			rows = append(rows, m)
		}
		want := expectAlbum(rep.st, a)
		if len(want) == 0 {
			t.Errorf("%s: empty expected answer makes a weak test", kind)
		}
		if err := checkAlbum(kind, want, rows); err != nil {
			t.Errorf("%s: engine answer rejected: %v", kind, err)
		}
	}
}

// The search oracle must accept the route's own answer in any order
// and reject an empty or cut answer, a wrong content count, a duplicate
// and a resource that does not match; a rejected answer counts as a
// failed operation.
func TestSearchOracle(t *testing.T) {
	rep := sharedReplica(t)
	srv := web.NewServer(rep.platform)
	defer srv.Close()
	o := newBrowseOracle(rep)
	o.target(engineSelect(rep.st))
	check := func(q string, cands []searchCandidate) error {
		body, _ := json.Marshal(cands)
		return o.check(browseOp{kind: "search", query: q}, body)
	}
	// Each query's answer has a candidate with content (a landmark or
	// city beside the posts); "Tori" has only posts and more matches
	// than the limit.
	for _, q := range []string{"Torre", "Castello", "München", "Tori"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q="+url.QueryEscape(q), nil))
		if err := o.check(browseOp{kind: "search", query: q}, rec.Body.Bytes()); err != nil {
			t.Errorf("%q: route answer rejected: %v", q, err)
		}
		var cands []searchCandidate
		if err := json.Unmarshal(rec.Body.Bytes(), &cands); err != nil {
			t.Fatal(err)
		}
		if len(cands) < 2 {
			t.Fatalf("%q: %d candidates make a weak test", q, len(cands))
		}
		r := newRun()
		r.check(check(q, []searchCandidate{}))
		if r.failed != 1 {
			t.Errorf("%q: empty answer accepted", q)
		}
		if check(q, cands[:1]) == nil {
			t.Errorf("%q: answer cut to one candidate accepted", q)
		}
		if check(q, append(cands[1:], cands[1])) == nil {
			t.Errorf("%q: duplicate candidate accepted", q)
		}
		reordered := append([]searchCandidate{cands[len(cands)-1]}, cands[:len(cands)-1]...)
		if err := check(q, reordered); err != nil {
			t.Errorf("%q: reordered answer rejected: %v", q, err)
		}
		withContents := false
		for i, c := range cands {
			withContents = withContents || c.Contents > 0
			wrong := slices.Clone(cands)
			wrong[i].Contents = 0
			if c.Contents == 0 {
				wrong[i].Contents = 1
			}
			if err := check(q, wrong); err == nil || !strings.Contains(err.Error(), "contents") {
				t.Errorf("%q: wrong contents of %s accepted: %v", q, c.Resource, err)
			}
		}
		if !withContents && q != "Tori" {
			t.Errorf("%q: no candidate has contents", q)
		}
		foreign := slices.Clone(cands)
		foreign[0] = searchCandidate{Resource: "http://example.org/nothing", Label: "Nothing"}
		if err := check(q, foreign); err == nil || !strings.Contains(err.Error(), "example.org") {
			t.Errorf("%q: candidate without the prefix accepted: %v", q, err)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, utime 1234 and stime
	// 56 ticks (fields 14 and 15).
	line := "4242 (my (odd) srv) S 1 4242 4242 0 -1 4194560 2417 0 0 0 1234 56 0 0 20 0 9 0 8890 123456 789 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	d, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1234 + 56) * 10; d.Milliseconds() != int64(want) {
		t.Errorf("cpu = %v, want %dms", d, want)
	}
	if _, err := parseProcStat("4242 (trunc) S 1 2"); err == nil {
		t.Error("short line accepted")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("own /proc stat: %v", err)
	}
}
