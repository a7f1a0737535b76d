package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"lodify/internal/lod"
)

// uploadsPerSecond fixes how many uploads a run makes per second of
// -seconds: a fixed count, not a fixed duration, so the store grows by
// the same amount in every run.
const uploadsPerSecond = 100

// uploadsPerWindow is the number of uploads in one window of the
// end-to-end statistics, about a second's worth.
const uploadsPerWindow = 100

// visibleTimeout bounds the wait for an acknowledged upload to show in
// its keyword feed; a longer wait counts the upload as failed.
const visibleTimeout = 10 * time.Second

var uploadTemplates = map[string][]string{
	"en": {"Sunset over %s", "A walk through %s", "%s by night"},
	"it": {"Tramonto su %s", "Passeggiata a %s", "%s di notte"},
	"fr": {"Coucher du soleil sur %s", "Promenade à %s"},
	"es": {"Puesta de sol sobre %s", "Paseo por %s"},
	"de": {"Sonnenuntergang über %s", "Spaziergang in %s"},
}

var uploadLangs = []string{"en", "it", "fr", "es", "de"}

// upload is one generated POST /api/upload body plus the feed keyword
// it must appear under.
type upload struct {
	User     string   `json:"user"`
	Filename string   `json:"filename"`
	Title    string   `json:"title"`
	Tags     []string `json:"tags"`
	Lat      float64  `json:"lat"`
	Lon      float64  `json:"lon"`
	TakenAt  string   `json:"takenAt"`
	keyword  string
}

// genUploads draws n uploads: a title in one of the corpus languages
// naming one of the cities, that city as the tag, GPS near it and a
// fixed takenAt.
func genUploads(seed int64, n int, cities []lod.City) []upload {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	base := time.Date(2012, 3, 27, 10, 0, 0, 0, time.UTC)
	out := make([]upload, n)
	for i := range out {
		city := cities[rng.Intn(len(cities))]
		lang := uploadLangs[rng.Intn(len(uploadLangs))]
		label := city.Labels[lang]
		if label == "" {
			label = city.Name
		}
		tpls := uploadTemplates[lang]
		kw := strings.ToLower(city.Name)
		out[i] = upload{
			User:     fmt.Sprintf("user%02d", rng.Intn(corpusUsers)),
			Filename: fmt.Sprintf("bench-%d-%05d.jpg", seed, i),
			Title:    fmt.Sprintf(tpls[rng.Intn(len(tpls))], label),
			Tags:     []string{kw},
			Lat:      city.Point.Lat + (rng.Float64()*2-1)*0.02,
			Lon:      city.Point.Lon + (rng.Float64()*2-1)*0.02,
			TakenAt:  base.Add(time.Duration(i) * time.Minute).Format(time.RFC3339),
			keyword:  kw,
		}
	}
	return out
}

// uploadResult is one upload's outcome: acknowledgement latency, time
// until its IRI showed in the feed, and the error if either failed.
type uploadResult struct {
	iri       string
	ack, seen time.Duration
	err       error
}

// postUpload sends one upload and returns the new content's IRI.
func postUpload(c *http.Client, base string, u upload) (string, error) {
	b, _ := json.Marshal(u)
	resp, err := c.Post(base+"/api/upload", "application/json", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("upload: status %d: %.200s", resp.StatusCode, body)
	}
	var ack struct {
		IRI string `json:"iri"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.IRI == "" {
		return "", fmt.Errorf("upload: bad acknowledgement %.200s", body)
	}
	return ack.IRI, nil
}

// publishOne uploads u and polls its keyword feed until the new IRI
// appears.
func publishOne(c *http.Client, base string, u upload) uploadResult {
	t0 := time.Now()
	iri, err := postUpload(c, base, u)
	res := uploadResult{iri: iri, ack: time.Since(t0), err: err}
	if err != nil {
		return res
	}
	guid := []byte("<guid>" + iri + "</guid>")
	for {
		body, err := get(c, base+"/feeds/keyword/"+u.keyword)
		if err != nil {
			res.err = err
			return res
		}
		if bytes.Contains(body, guid) {
			res.seen = time.Since(t0)
			return res
		}
		if time.Since(t0) > visibleTimeout {
			res.err = fmt.Errorf("upload %s not in feed %s after %v", iri, u.keyword, visibleTimeout)
			return res
		}
		time.Sleep(time.Millisecond)
	}
}

// publishAll runs the uploads from `clients` closed-loop goroutines,
// upload i on client i mod clients.
func publishAll(c *http.Client, base string, ups []upload) ([]uploadResult, time.Duration) {
	res := make([]uploadResult, len(ups))
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(ups); i += clients {
				res[i] = publishOne(c, base, ups[i])
			}
		}(k)
	}
	wg.Wait()
	return res, time.Since(start)
}

func runPublish(r *run) error {
	rep, err := buildReplica(r.seed)
	if err != nil {
		return err
	}
	c := newClient()
	keywords := feedKeywords(rep.world)
	ups := genUploads(r.seed, uploadsPerSecond*r.seconds, rep.world.Cities)
	var seen, folds []float64
	var ws []window
	var cost procCost
	err = r.eachServer(c, func(s *server) error { return warmFeeds(c, s, keywords) }, func(s *server, i int) error {
		if err := checkReplica(c, s, rep); err != nil {
			return err
		}
		initial, err := countPosts(c, s.base)
		if err != nil {
			return err
		}
		before, err := sampleProc(c, s)
		if err != nil {
			return err
		}
		share := ups[i*len(ups)/setupRuns : (i+1)*len(ups)/setupRuns]
		// One window per chunk of uploads, between two reference
		// samples.
		var results []uploadResult
		k := max(1, (len(share)+uploadsPerWindow/2)/uploadsPerWindow)
		ref := r.machine.sample()
		for j := 0; j < k; j++ {
			chunk, el := publishAll(c, s.base, share[j*len(share)/k:(j+1)*len(share)/k])
			w := window{dur: el}
			for _, res := range chunk {
				if res.err == nil {
					w.ops++
					w.lat = append(w.lat, ms(res.ack))
				}
			}
			next := r.machine.sample()
			w.refs = [2]float64{ref, next}
			ref = next
			ws = append(ws, w)
			results = append(results, chunk...)
		}
		after, err := sampleProc(c, s)
		if err != nil {
			return err
		}
		cost.add(before, after, len(share))
		acked := 0
		for _, res := range results {
			r.check(res.err)
			if res.err == nil {
				acked++
				seen = append(seen, ms(res.seen))
			}
		}
		fr, err := matviewFoldRatio(c, s.base)
		if err != nil {
			return err
		}
		folds = append(folds, fr)
		// Every acknowledged upload is a post, and each keyword view
		// equals a fresh evaluation of its query once maintenance has
		// caught up.
		n, err := countPosts(c, s.base)
		if err == nil && n != initial+acked {
			err = fmt.Errorf("publish: %d posts after %d acknowledged uploads onto %d", n, acked, initial)
		}
		r.check(err)
		for _, kw := range keywords {
			r.check(feedMatchesFresh(c, s.base, kw))
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
	r.setPct("route.visible.p50_ms", seen, 0.5)
	r.set("matview.live_fold_ratio", mean(folds))
	return r.tracePublish(ups)
}

// feedMatchesFresh compares a keyword feed with a fresh /sparql
// evaluation of its query, giving view maintenance a moment to apply
// the last commits.
func feedMatchesFresh(c *http.Client, base, kw string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		want, err := freshFeed(serverSelect(c, base), kw)
		if err != nil {
			return err
		}
		body, err := get(c, base+"/feeds/keyword/"+kw)
		if err != nil {
			return err
		}
		guids, err := feedGUIDs(body)
		if err != nil {
			return err
		}
		err = sameSet(guids, want)
		if err == nil || time.Now().After(deadline) {
			if err != nil {
				err = fmt.Errorf("feed %s: %v", kw, err)
			}
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}
