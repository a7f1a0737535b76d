package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"lodify/internal/album"
	"lodify/internal/lod"
	"lodify/internal/rdf"
	"lodify/internal/sparql"
	"lodify/internal/store"
)

// Browse traffic: E5 About over random pids, the E3a/b/c albums via
// /sparql, keyword feeds served from warmed materialized views, and E4
// incremental search with one request per keystroke from 3 runes up.
var (
	albumMonuments = []string{"Mole Antonelliana", "Torre Eiffel"}
	albumUsers     = []string{"user00", "user01", "user02", "user03"}
	albumKinds     = []string{"e3a", "e3b", "e3c"}
)

// browseOp is one generated request.
type browseOp struct {
	kind    string // about, album, search, feed
	path    string
	pid     int64
	album   albumSpec
	query   string
	keyword string
}

// feedKeywords are the lower-cased city names, the keyword albums the
// browse and publish workloads read.
func feedKeywords(w *lod.World) []string {
	var out []string
	for _, c := range w.Cities {
		out = append(out, strings.ToLower(c.Name))
	}
	return out
}

// searchWords are the words of every city and landmark label with at
// least four runes, the terms the search sessions type.
func searchWords(w *lod.World) []string {
	set := map[string]bool{}
	add := func(labels map[string]string) {
		for _, l := range labels {
			for _, f := range strings.FieldsFunc(l, func(r rune) bool { return r == ' ' || r == ',' }) {
				if utf8.RuneCountInString(f) >= 4 {
					set[f] = true
				}
			}
		}
	}
	for _, c := range w.Cities {
		add(c.Labels)
		for _, lm := range c.Landmarks {
			add(lm.Labels)
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func albumQuery(a albumSpec) string {
	switch a.Kind {
	case "e3a":
		return album.NearMonument(nil, a.Monument, albumLang, albumPrecision).Query
	case "e3b":
		return album.NearMonumentByFriends(nil, a.Monument, albumLang, albumPrecision, a.User).Query
	default:
		return album.NearMonumentByFriendsRated(nil, a.Monument, albumLang, albumPrecision, a.User).Query
	}
}

// browseMix is each client's fixed request cycle. The shares (3 search
// keystrokes, 2 About, 2 album, 1 feed in 8) are a chosen mix, not
// measured traffic. They are fixed so that a run's mix, and so its
// percentiles, is the same from seed to seed, and they put the median
// inside the search cluster and p90 inside the About cluster rather
// than on a boundary between two, where it would jump between runs.
var browseMix = []string{"search", "about", "album", "search", "feed", "about", "album", "search"}

// browseGen is one client's deterministic request stream.
type browseGen struct {
	rng      *rand.Rand
	words    []string
	keywords []string
	slot     int
	typing   []browseOp // remaining keystrokes of the current search
}

func newBrowseGen(seed int64, client int, words, keywords []string) *browseGen {
	return &browseGen{
		rng:   rand.New(rand.NewSource(seed*7919 + int64(client) + 1)),
		words: words, keywords: keywords,
		slot: client * len(browseMix) / clients,
	}
}

func (g *browseGen) next() browseOp {
	kind := browseMix[g.slot%len(browseMix)]
	g.slot++
	switch kind {
	case "about":
		pid := int64(1 + g.rng.Intn(corpusContents))
		return browseOp{kind: "about", pid: pid, path: fmt.Sprintf("/api/about?pid=%d", pid)}
	case "album":
		a := albumSpec{
			Kind:     albumKinds[g.rng.Intn(len(albumKinds))],
			Monument: albumMonuments[g.rng.Intn(len(albumMonuments))],
			User:     albumUsers[g.rng.Intn(len(albumUsers))],
		}
		if a.Kind == "e3a" {
			a.User = ""
		}
		return browseOp{kind: "album", album: a, path: "/sparql?query=" + url.QueryEscape(albumQuery(a))}
	case "search":
		// One keystroke per search slot; a finished word starts the next.
		if len(g.typing) == 0 {
			word := []rune(g.words[g.rng.Intn(len(g.words))])
			for n := 3; n <= len(word); n++ {
				q := string(word[:n])
				g.typing = append(g.typing, browseOp{kind: "search", query: q, path: "/api/search?q=" + url.QueryEscape(q)})
			}
		}
		op := g.typing[0]
		g.typing = g.typing[1:]
		return op
	default:
		kw := g.keywords[g.rng.Intn(len(g.keywords))]
		return browseOp{kind: "feed", keyword: kw, path: "/feeds/keyword/" + kw}
	}
}

// browseOracle checks browse answers, caching expected answers per
// distinct request. Keyword feeds and the search route's content
// counts are compared with fresh SPARQL evaluations on the target that
// answered — a live server, or the replica in the replay: a feed's
// pubDates are time.Now, and the dcterms:references links that content
// counts follow come from automatic annotation, which the program does
// not repeat exactly from one start to the next with the same seed.
type browseOracle struct {
	rep    *replica
	about  map[int64]aboutArms
	albums map[albumSpec]map[albumRow]bool
	search *searchOracle

	fresh    selectFunc
	feeds    map[string]map[string]bool // keyword -> fresh answer
	contents map[string]int             // resource -> fresh content count
	// verdicts caches the check of each distinct (request, answer)
	// pair on the current target: the same answer to the same request
	// is right or wrong the same way every time it comes back.
	verdicts map[verdictKey]error
}

type verdictKey struct {
	path string
	body uint64 // FNV-1a of the answer
}

func newBrowseOracle(rep *replica) *browseOracle {
	return &browseOracle{rep: rep, about: map[int64]aboutArms{},
		albums: map[albumSpec]map[albumRow]bool{}, search: newSearchOracle(rep.st)}
}

// target points the fresh evaluations at the target whose answers are
// checked next.
func (o *browseOracle) target(fresh selectFunc) {
	o.fresh = fresh
	o.feeds = map[string]map[string]bool{}
	o.contents = map[string]int{}
	o.verdicts = map[verdictKey]error{}
}

// selectFunc evaluates a SELECT query on one target and returns its
// rows as values.
type selectFunc func(query string) ([]map[string]string, error)

func serverSelect(c *http.Client, base string) selectFunc {
	return func(q string) ([]map[string]string, error) { return sparqlSelect(c, base, q) }
}

func engineSelect(st *store.Store) selectFunc {
	e := sparql.NewEngine(st)
	return func(q string) ([]map[string]string, error) {
		res, err := e.Query(q)
		if err != nil {
			return nil, err
		}
		out := make([]map[string]string, len(res.Solutions))
		for i, s := range res.Solutions {
			out[i] = map[string]string{}
			for k, v := range s {
				out[i][k] = v.Value()
			}
		}
		return out, nil
	}
}

// freshFeed evaluates a keyword album's SPARQL on the target now,
// bypassing its materialized view, and returns the ?resource set.
func freshFeed(sel selectFunc, kw string) (map[string]bool, error) {
	rows, err := sel(album.ByKeywordSemantic(nil, kw).Query)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, r := range rows {
		out[r["resource"]] = true
	}
	return out, nil
}

// contentCount is the number of rows of a fresh evaluation of the
// query behind a resource's content listing (album.AboutResource).
func (o *browseOracle) contentCount(res string) (int, error) {
	if n, ok := o.contents[res]; ok {
		return n, nil
	}
	rows, err := o.fresh(album.AboutResource(nil, rdf.NewIRI(res)).Query)
	if err != nil {
		return 0, err
	}
	o.contents[res] = len(rows)
	return len(rows), nil
}

// check judges one answer, once per distinct answer to a request.
func (o *browseOracle) check(op browseOp, body []byte) error {
	h := fnv.New64a()
	h.Write(body)
	key := verdictKey{op.path, h.Sum64()}
	if err, ok := o.verdicts[key]; ok {
		return err
	}
	err := o.judge(op, body)
	if o.verdicts != nil {
		o.verdicts[key] = err
	}
	return err
}

func (o *browseOracle) judge(op browseOp, body []byte) error {
	switch op.kind {
	case "about":
		want, ok := o.about[op.pid]
		if !ok {
			c, found := o.rep.platform.Content(op.pid)
			if !found {
				return fmt.Errorf("about: pid %d not in the replica", op.pid)
			}
			want = expectAbout(o.rep.st, c.IRI, "it")
			o.about[op.pid] = want
		}
		rows, err := parseAbout(body)
		if err != nil {
			return err
		}
		return checkAbout(want, rows)
	case "album":
		want, ok := o.albums[op.album]
		if !ok {
			want = expectAlbum(o.rep.st, op.album)
			o.albums[op.album] = want
		}
		rows, err := parseBindings(body)
		if err != nil {
			return err
		}
		return checkAlbum(op.album.Kind, want, rows)
	case "search":
		return o.search.check(op.query, body, o.contentCount)
	case "feed":
		guids, err := feedGUIDs(body)
		if err != nil {
			return err
		}
		want, ok := o.feeds[op.keyword]
		if !ok {
			if want, err = freshFeed(o.fresh, op.keyword); err != nil {
				return err
			}
			o.feeds[op.keyword] = want
		}
		if err := sameSet(guids, want); err != nil {
			return fmt.Errorf("feed %s: %v", op.keyword, err)
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %q", op.kind)
}

// browseSample is one timed request with its answer, checked after the
// timed phase so checking costs no client time while measuring.
type browseSample struct {
	op   browseOp
	d    time.Duration
	body []byte
	err  error
}

// closedLoop runs one goroutine per generator until the deadline; each
// sends its next request only after the previous answer arrived.
func closedLoop(c *http.Client, base string, gens []*browseGen, d time.Duration) ([]browseSample, time.Duration) {
	out := make([][]browseSample, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g *browseGen) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := g.next()
				t0 := time.Now()
				body, err := get(c, base+op.path)
				out[i] = append(out[i], browseSample{op, time.Since(t0), body, err})
			}
		}(i, g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []browseSample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, elapsed
}

// warmFeeds reads every keyword feed once, which registers its
// materialized view, so registration lands in set-up time.
func warmFeeds(c *http.Client, s *server, keywords []string) error {
	for _, kw := range keywords {
		if _, err := get(c, s.base+"/feeds/keyword/"+kw); err != nil {
			return err
		}
	}
	return nil
}

// setupRuns is how many fresh servers (or, for ingest, archive
// builds) one run sets up; setup_s is their median.
const setupRuns = 3

// eachServer starts setupRuns fresh servers one after another. Each is
// timed from process start through warm-up (setup_s is the median) and
// then carries 1/setupRuns of the run's measured work, so luck that
// sticks to one process — heap layout, GC pacing, map seeds — is
// averaged within a run. Every server is killed and reaped before the
// next starts, also when a check fails.
func (r *run) eachServer(c *http.Client, warm func(*server) error, measure func(s *server, i int) error) error {
	var times []float64
	var refs [][2]float64
	for i := 0; i < setupRuns; i++ {
		before := r.machine.sample()
		s, d, err := r.startServer(c)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = warm(s)
		times = append(times, (d + time.Since(t0)).Seconds())
		refs = append(refs, [2]float64{before, r.machine.sample()})
		if err == nil {
			err = measure(s, i)
		}
		s.kill()
		if err != nil {
			return err
		}
	}
	r.setSetup(times, refs)
	return nil
}

func runBrowse(r *run) error {
	rep, err := buildReplica(r.seed)
	if err != nil {
		return err
	}
	c := newClient()
	keywords := feedKeywords(rep.world)
	words := searchWords(rep.world)
	gens := func(seed int64) []*browseGen {
		var g []*browseGen
		for i := 0; i < clients; i++ {
			g = append(g, newBrowseGen(seed, i, words, keywords))
		}
		return g
	}
	o := newBrowseOracle(rep)
	// One request stream for the whole run, split across the servers.
	stream := gens(r.seed)
	per := time.Duration(r.seconds) * time.Second / setupRuns
	var ws []window
	var cost procCost
	byKind := map[string][]float64{}
	err = r.eachServer(c, func(s *server) error { return warmFeeds(c, s, keywords) }, func(s *server, i int) error {
		if err := checkReplica(c, s, rep); err != nil {
			return err
		}
		o.target(serverSelect(c, s.base))
		// A short warm-up on another stream fills plan and page caches.
		closedLoop(c, s.base, gens(^r.seed-int64(i)), 300*time.Millisecond)
		before, err := sampleProc(c, s)
		if err != nil {
			return err
		}
		// One window per chunk of the phase, between two reference
		// samples.
		var sm []browseSample
		k := windowsIn(per)
		ref := r.machine.sample()
		for j := 0; j < k; j++ {
			chunk, el := closedLoop(c, s.base, stream, per/time.Duration(k))
			w := window{dur: el, ops: float64(len(chunk))}
			for _, x := range chunk {
				w.lat = append(w.lat, ms(x.d))
			}
			next := r.machine.sample()
			w.refs = [2]float64{ref, next}
			ref = next
			ws = append(ws, w)
			sm = append(sm, chunk...)
		}
		after, err := sampleProc(c, s)
		if err != nil {
			return err
		}
		cost.add(before, after, len(sm))
		for _, x := range sm {
			// Check before the next server starts: feeds and content
			// counts are compared with this server's fresh evaluations.
			err := x.err
			if err == nil {
				err = o.check(x.op, x.body)
			}
			r.check(err)
			byKind[x.op.kind] = append(byKind[x.op.kind], ms(x.d))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !r.trace {
		r.setWindowed(ws)
		return nil
	}
	cost.set(r)
	for _, k := range []string{"about", "album", "search", "feed"} {
		r.setPct("route."+k+".p50_ms", byKind[k], 0.5)
	}
	return r.traceBrowse(rep, gens(r.seed), o)
}

// checkReplica confirms the server and the replica hold the same posts
// before any answer is judged against the replica. Their annotation
// links may still differ (see browseOracle), so no oracle reads those
// from the replica.
func checkReplica(c *http.Client, s *server, rep *replica) error {
	n, err := countPosts(c, s.base)
	if err != nil {
		return err
	}
	if want := len(rep.st.Subjects(iriType, iriPost)); n != want {
		return fmt.Errorf("server holds %d posts, replica %d: replica diverged", n, want)
	}
	return nil
}

func countPosts(c *http.Client, base string) (int, error) {
	rows, err := sparqlSelect(c, base, "SELECT (COUNT(?p) AS ?n) WHERE { ?p a <"+iriPost.Value()+"> }")
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 {
		return 0, fmt.Errorf("COUNT returned %d rows", len(rows))
	}
	var n int
	_, err = fmt.Sscan(rows[0]["n"], &n)
	return n, err
}
