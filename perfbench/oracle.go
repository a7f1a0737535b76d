package main

// Answer oracles. Expected answers come from the in-process replica
// through the store and geo packages only — never the SPARQL engine
// under test — and every checker accepts each answer SPARQL allows:
// DISTINCT rows in any order, ORDER BY ties in any order, and any
// min(5, N) rows of an arm the About query cuts with LIMIT 5 and no
// ORDER BY.

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lodify/internal/geo"
	"lodify/internal/rdf"
	"lodify/internal/store"
)

const (
	nsGeo   = "http://www.w3.org/2003/01/geo/wgs84_pos#"
	nsLGDO  = "http://linkedgeodata.org/ontology/"
	nsSioct = "http://rdfs.org/sioc/types#"
	nsFoaf  = "http://xmlns.com/foaf/0.1/"
)

var (
	iriType      = rdf.NewIRI(rdf.RDFType)
	iriLabel     = rdf.NewIRI(rdf.RDFSLabel)
	iriGeometry  = rdf.NewIRI(nsGeo + "geometry")
	iriAbstract  = rdf.NewIRI("http://dbpedia.org/ontology/abstract")
	iriPlace     = rdf.NewIRI("http://dbpedia.org/ontology/Place")
	iriCity      = rdf.NewIRI(nsLGDO + "City")
	iriRest      = rdf.NewIRI(nsLGDO + "Restaurant")
	iriTourism   = rdf.NewIRI(nsLGDO + "Tourism")
	iriWebsite   = rdf.NewIRI("http://linkedgeodata.org/property/website")
	iriPost      = rdf.NewIRI(nsSioct + "MicroblogPost")
	iriTitle     = rdf.NewIRI("http://purl.org/dc/elements/1.1/title")
	iriImageData = rdf.NewIRI("http://comm.semanticweb.org/core.owl#image-data")
	iriMaker     = rdf.NewIRI(nsFoaf + "maker")
	iriName      = rdf.NewIRI(nsFoaf + "name")
	iriKnows     = rdf.NewIRI(nsFoaf + "knows")
	iriRating    = rdf.NewIRI("http://purl.org/stuff/rev#rating")
)

// searchLimit is web.Server's default SearchLimit.
const searchLimit = 10

// aboutLimit is the per-arm LIMIT of the §4.1 About query.
const aboutLimit = 5

// geometries returns the parsed WKT geometry literals of s; anything
// else is a type error the query's FILTER drops.
func geometries(st *store.Store, s rdf.Term) []geo.Point {
	var out []geo.Point
	for _, o := range st.Objects(s, iriGeometry) {
		if !o.IsLiteral() {
			continue
		}
		if p, err := geo.ParseWKT(o.Value()); err == nil {
			out = append(out, p)
		}
	}
	return out
}

func intersectsAny(as, bs []geo.Point, precision float64) bool {
	for _, a := range as {
		for _, b := range bs {
			if geo.Intersects(a, b, precision) {
				return true
			}
		}
	}
	return false
}

func hasObject(st *store.Store, s, p, o rdf.Term) bool {
	for _, x := range st.Objects(s, p) {
		if x == o {
			return true
		}
	}
	return false
}

// langMatches is SPARQL's langMatches for a plain language range.
func langMatches(tag, rng string) bool {
	tag, rng = strings.ToLower(tag), strings.ToLower(rng)
	return tag != "" && (tag == rng || strings.HasPrefix(tag, rng+"-"))
}

// ---- E3 albums (§2.3) ----

// albumSpec names one of the three §2.3 album queries: e3a (near the
// monument), e3b (… by friends of user), e3c (… rated, ORDER BY
// DESC(?points)).
type albumSpec struct {
	Kind     string
	Monument string
	User     string
}

// albumRow is one result row as values; Points is "" for e3a/e3b.
type albumRow struct{ Resource, Link, Points string }

// albumPrecision and albumLang are the E3 parameters (DESIGN.md E3).
const (
	albumPrecision = 0.3
	albumLang      = "it"
)

func expectAlbum(st *store.Store, a albumSpec) map[albumRow]bool {
	var src []geo.Point
	for _, m := range st.Subjects(iriLabel, rdf.NewLangLiteral(a.Monument, albumLang)) {
		src = append(src, geometries(st, m)...)
	}
	var makers map[rdf.Term]bool
	if a.Kind != "e3a" {
		makers = map[rdf.Term]bool{}
		for _, friend := range st.Subjects(iriName, rdf.NewLiteral(a.User)) {
			for _, u := range st.Subjects(iriKnows, friend) {
				makers[u] = true
			}
		}
	}
	out := map[albumRow]bool{}
	for _, res := range st.Subjects(iriType, iriPost) {
		if !intersectsAny(geometries(st, res), src, albumPrecision) {
			continue
		}
		if makers != nil {
			ok := false
			for _, m := range st.Objects(res, iriMaker) {
				ok = ok || makers[m]
			}
			if !ok {
				continue
			}
		}
		points := []string{""}
		if a.Kind == "e3c" {
			points = points[:0]
			for _, p := range st.Objects(res, iriRating) {
				points = append(points, p.Value())
			}
		}
		for _, link := range st.Objects(res, iriImageData) {
			for _, p := range points {
				out[albumRow{res.Value(), link.Value(), p}] = true
			}
		}
	}
	return out
}

// checkAlbum accepts the expected row set in any order; for e3c the
// rows must also be ordered by non-increasing ?points, ties in any
// order.
func checkAlbum(kind string, want map[albumRow]bool, rows []map[string]string) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", kind, len(rows), len(want))
	}
	seen := map[albumRow]bool{}
	prev := 0.0
	for i, b := range rows {
		row := albumRow{b["resource"], b["link"], b["points"]}
		if !want[row] {
			return fmt.Errorf("%s: row %v is not an answer", kind, row)
		}
		if seen[row] {
			return fmt.Errorf("%s: duplicate row %v", kind, row)
		}
		seen[row] = true
		if kind == "e3c" {
			p, err := strconv.ParseFloat(row.Points, 64)
			if err != nil {
				return fmt.Errorf("e3c: non-numeric points %q", row.Points)
			}
			if i > 0 && p > prev {
				return fmt.Errorf("e3c: row %d has points %g after %g (ORDER BY DESC broken)", i, p, prev)
			}
			prev = p
		}
	}
	return nil
}

// ---- E5 About mashup (§4.1) ----

// aboutRow is one About answer row as the JSON API shows it.
type aboutRow struct {
	Label    string `json:"label"`
	Type     string `json:"type"`
	Desc     string `json:"desc"`
	Resource string `json:"resource"`
}

// aboutArms maps each arm's entity type IRI to its full (un-LIMITed)
// answer: value-level rows with the number of distinct RDF rows that
// show as each (labels differing only by language tag look alike).
type aboutArms map[string]map[aboutRow]int

type termRow struct{ lbl, desc, others rdf.Term }

func expectAbout(st *store.Store, pic rdf.Term, lang string) aboutArms {
	loc := geometries(st, pic)
	arms := map[rdf.Term]map[termRow]bool{iriCity: {}, iriRest: {}, iriTourism: {}, iriPost: {}}
	near := func(s rdf.Term, precision float64) bool {
		return intersectsAny(loc, geometries(st, s), precision)
	}
	for _, city := range st.Subjects(iriType, iriCity) {
		if !near(city, 1) {
			continue
		}
		for _, lbl := range st.Objects(city, iriLabel) {
			for _, others := range st.Subjects(iriLabel, lbl) {
				if !hasObject(st, others, iriType, iriPlace) {
					continue
				}
				for _, desc := range st.Objects(others, iriAbstract) {
					if desc.IsLiteral() && langMatches(desc.Lang(), lang) {
						arms[iriCity][termRow{lbl, desc, others}] = true
					}
				}
			}
		}
	}
	for ty, precision := range map[rdf.Term]float64{iriRest: 0.3, iriTourism: 1} {
		for _, others := range st.Subjects(iriType, ty) {
			if !near(others, precision) {
				continue
			}
			sites := st.Objects(others, iriWebsite)
			if len(sites) == 0 {
				sites = []rdf.Term{{}} // OPTIONAL left unbound
			}
			for _, lbl := range st.Objects(others, iriLabel) {
				for _, site := range sites {
					arms[ty][termRow{lbl, site, others}] = true
				}
			}
		}
	}
	for _, others := range st.Subjects(iriType, iriPost) {
		if !near(others, 0.2) {
			continue
		}
		for _, lbl := range st.Objects(others, iriTitle) {
			for _, desc := range st.Objects(others, iriImageData) {
				arms[iriPost][termRow{lbl, desc, others}] = true
			}
		}
	}
	out := aboutArms{}
	for ty, rows := range arms {
		m := map[aboutRow]int{}
		for tr := range rows {
			m[aboutRow{tr.lbl.Value(), ty.Value(), tr.desc.Value(), tr.others.Value()}]++
		}
		out[ty.Value()] = m
	}
	return out
}

// checkAbout accepts any legal LIMIT-5 answer: each arm returns
// min(5, |arm|) rows, every one drawn from that arm's full answer, no
// row more often than distinct RDF rows show as it.
func checkAbout(want aboutArms, rows []aboutRow) error {
	got := map[string]map[aboutRow]int{}
	for _, r := range rows {
		arm, ok := want[r.Type]
		if !ok {
			return fmt.Errorf("about: row of unexpected type %q", r.Type)
		}
		if got[r.Type] == nil {
			got[r.Type] = map[aboutRow]int{}
		}
		got[r.Type][r]++
		if got[r.Type][r] > arm[r] {
			return fmt.Errorf("about: row %+v is not in its arm's answer", r)
		}
	}
	for ty, arm := range want {
		full := 0
		for _, n := range arm {
			full += n
		}
		n := 0
		for _, c := range got[ty] {
			n += c
		}
		if wantN := min(aboutLimit, full); n != wantN {
			return fmt.Errorf("about: arm %s has %d rows, want %d of %d", ty, n, wantN, full)
		}
	}
	return nil
}

func parseAbout(body []byte) ([]aboutRow, error) {
	var rows []aboutRow
	if err := json.Unmarshal(body, &rows); err != nil {
		return nil, fmt.Errorf("about: bad JSON: %v", err)
	}
	return rows, nil
}

// ---- E4 incremental search (Figs. 2-3) ----

type searchCandidate struct {
	Resource string `json:"resource"`
	Label    string `json:"label"`
	Contents int    `json:"contents"`
}

// searchOracle knows, from the replica through store only, which
// resources a typed query matches. A resource is offered by the search
// route when it is an IRI with a label or title and its literals hold
// every earlier token of the query exactly and a token starting with
// the last one (case folded as the store's tokenizer folds it).
type searchOracle struct {
	// tokens holds the literal tokens of every labelled IRI subject.
	tokens map[string]map[string]bool
	// matches memoizes the number of matching resources per query.
	matches map[string]int
}

func newSearchOracle(st *store.Store) *searchOracle {
	o := &searchOracle{tokens: map[string]map[string]bool{}, matches: map[string]int{}}
	labelled := map[string]bool{}
	st.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, rdf.Term{}, func(q rdf.Quad) bool {
		if !q.S.IsIRI() || !q.O.IsLiteral() {
			return true
		}
		s := q.S.Value()
		if o.tokens[s] == nil {
			o.tokens[s] = map[string]bool{}
		}
		for _, t := range store.Tokenize(q.O.Value()) {
			o.tokens[s][t] = true
		}
		if (q.P == iriLabel || q.P == iriTitle) && q.O.Value() != "" {
			labelled[s] = true
		}
		return true
	})
	for s := range o.tokens {
		if !labelled[s] {
			delete(o.tokens, s)
		}
	}
	return o
}

// matchTokens reports whether a resource's token set answers the query
// tokens qt: every earlier token exactly, the last as a prefix.
func matchTokens(have map[string]bool, qt []string) bool {
	if len(qt) == 0 {
		return false
	}
	for _, t := range qt[:len(qt)-1] {
		if !have[t] {
			return false
		}
	}
	last := qt[len(qt)-1]
	for t := range have {
		if strings.HasPrefix(t, last) {
			return true
		}
	}
	return false
}

// matchCount is the number of labelled resources the query matches.
func (o *searchOracle) matchCount(q string) int {
	if n, ok := o.matches[q]; ok {
		return n
	}
	qt := store.Tokenize(q)
	n := 0
	for _, have := range o.tokens {
		if matchTokens(have, qt) {
			n++
		}
	}
	o.matches[q] = n
	return n
}

// check accepts exactly min(searchLimit, matching resources) distinct
// candidates in any order, each a matching labelled resource with a
// label and the content count that contents gives for it.
func (o *searchOracle) check(q string, body []byte, contents func(res string) (int, error)) error {
	var cands []searchCandidate
	if err := json.Unmarshal(body, &cands); err != nil {
		return fmt.Errorf("search %q: bad JSON: %v", q, err)
	}
	n := o.matchCount(q)
	if want := min(searchLimit, n); len(cands) != want {
		return fmt.Errorf("search %q: %d candidates, want %d (%d resources match, limit %d)", q, len(cands), want, n, searchLimit)
	}
	qt := store.Tokenize(q)
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Resource] {
			return fmt.Errorf("search %q: candidate %s offered twice", q, c.Resource)
		}
		seen[c.Resource] = true
		if c.Label == "" {
			return fmt.Errorf("search %q: candidate %s has no label", q, c.Resource)
		}
		have, ok := o.tokens[c.Resource]
		if !ok || !matchTokens(have, qt) {
			return fmt.Errorf("search %q: candidate %s is not a labelled resource matching the query", q, c.Resource)
		}
		want, err := contents(c.Resource)
		if err != nil {
			return err
		}
		if c.Contents != want {
			return fmt.Errorf("search %q: candidate %s has contents %d, want %d", q, c.Resource, c.Contents, want)
		}
	}
	return nil
}

// ---- keyword feeds ----

// feedGUIDs extracts the item guids of an RSS feed.
func feedGUIDs(body []byte) ([]string, error) {
	var doc struct {
		Items []struct {
			GUID string `xml:"guid"`
		} `xml:"channel>item"`
	}
	if err := xml.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("feed: bad RSS: %v", err)
	}
	out := make([]string, len(doc.Items))
	for i, it := range doc.Items {
		out[i] = it.GUID
	}
	return out, nil
}

// sameSet reports whether got holds exactly the members of want, each
// once.
func sameSet(got []string, want map[string]bool) error {
	seen := map[string]bool{}
	for _, g := range got {
		if !want[g] {
			return fmt.Errorf("unexpected item %s", g)
		}
		if seen[g] {
			return fmt.Errorf("duplicate item %s", g)
		}
		seen[g] = true
	}
	if len(seen) != len(want) {
		missing := []string{}
		for w := range want {
			if !seen[w] {
				missing = append(missing, w)
			}
		}
		sort.Strings(missing)
		return fmt.Errorf("%d of %d items missing, first %s", len(missing), len(want), missing[0])
	}
	return nil
}
