package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"time"

	"lodify/internal/d2r"
	"lodify/internal/experiments"
	"lodify/internal/reldb"
	"lodify/internal/store"
)

// The ingest archive: the D2R dump of a Coppermine database with this
// many users and pictures (441,600 quads, about 54 MB), larger than
// every program cache.
const (
	ingestUsers    = 200
	ingestPictures = 40000
	// ingestParts splits the dump into archive files of equal line
	// count; each LoadNQuads of one file is one timed operation. A part
	// of about 2.3 MB still spans several of LoadNQuads' 1 MiB parse
	// chunks, so the parse pipeline runs as it does on the whole dump.
	ingestParts = 24
	// ingestMinReps repetitions make a run at the least: 120 file
	// loads, enough for a p90 with 10 samples beyond it.
	ingestMinReps = 5
)

const d2rBaseURI = "http://beta.teamlife.it/"

// buildArchive builds the relational database and its D2R dump — the
// ingest workload's set-up.
func buildArchive() (*reldb.DB, []byte, error) {
	db := experiments.BuildCoppermine(ingestUsers, ingestPictures)
	var buf bytes.Buffer
	if _, err := d2r.DumpNTriples(&buf, db, d2r.CoppermineMapping(d2rBaseURI)); err != nil {
		return nil, nil, err
	}
	return db, buf.Bytes(), nil
}

// archive is the ingest input with what the oracle needs to know
// about it.
type archive struct {
	data  []byte
	parts [][]byte
	// sorted holds the distinct input lines in byte order; digest is
	// the order-independent sum of their hashes.
	sorted [][]byte
	digest uint64
}

func lineHash(l []byte) uint64 {
	h := fnv.New64a()
	h.Write(l)
	return h.Sum64()
}

// splitLines returns the newline-terminated lines of b (without the
// newline).
func splitLines(b []byte) [][]byte {
	lines := bytes.Split(b, []byte{'\n'})
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	return lines
}

func newArchive(data []byte) *archive {
	lines := splitLines(data)
	a := &archive{data: data}
	// Parts end on line boundaries: part k holds lines [k*n/P, (k+1)*n/P).
	off := 0
	for k := 0; k < ingestParts; k++ {
		end := off
		for _, l := range lines[k*len(lines)/ingestParts : (k+1)*len(lines)/ingestParts] {
			end += len(l) + 1
		}
		a.parts = append(a.parts, data[off:end])
		off = end
	}
	a.sorted = slices.Clone(lines)
	slices.SortFunc(a.sorted, bytes.Compare)
	a.sorted = slices.CompactFunc(a.sorted, bytes.Equal)
	for _, l := range a.sorted {
		a.digest += lineHash(l)
	}
	return a
}

// checkDump compares a store dump with the archive's distinct lines:
// exactly (sorted) when full is set, by count and line-hash sum
// otherwise.
func (a *archive) checkDump(dump []byte, full bool) error {
	lines := splitLines(dump)
	if len(lines) != len(a.sorted) {
		return fmt.Errorf("dump has %d lines, input %d distinct", len(lines), len(a.sorted))
	}
	if full {
		slices.SortFunc(lines, bytes.Compare)
		for i, l := range lines {
			if !bytes.Equal(l, a.sorted[i]) {
				return fmt.Errorf("dump line %q differs from input line %q", l, a.sorted[i])
			}
		}
		return nil
	}
	var sum uint64
	for _, l := range lines {
		sum += lineHash(l)
	}
	if sum != a.digest {
		return fmt.Errorf("dump lines differ from the input lines")
	}
	return nil
}

// setupArchive builds the archive setupRuns times and reports the
// median build time, at the reference speed, as setup_s.
func (r *run) setupArchive() (*reldb.DB, *archive, error) {
	var times []float64
	var refs [][2]float64
	var db *reldb.DB
	var data []byte
	for i := 0; i < setupRuns; i++ {
		db, data = nil, nil
		runtime.GC()
		before := r.machine.sample()
		t0 := time.Now()
		var err error
		if db, data, err = buildArchive(); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		refs = append(refs, [2]float64{before, r.machine.sample()})
	}
	r.setSetup(times, refs)
	return db, newArchive(data), nil
}

func runIngest(r *run) error {
	db, a, err := r.setupArchive()
	if err != nil {
		return err
	}
	if r.trace {
		return r.traceIngest(db, a)
	}
	// Each repetition is one window between two reference samples:
	// ops_per_s is the median over repetitions, p50_ms and p90_ms are
	// taken over every file load of the run.
	var ws []window
	out := bytes.NewBuffer(make([]byte, 0, len(a.data)+len(a.data)/8))
	start := time.Now()
	runtime.GC()
	ref := r.machine.sample()
	for rep := 0; rep < ingestMinReps || time.Since(start) < time.Duration(r.seconds)*time.Second; rep++ {
		var w window
		st := store.New()
		added := 0
		for _, part := range a.parts {
			t0 := time.Now()
			n, err := st.LoadNQuads(bytes.NewReader(part))
			d := time.Since(t0)
			r.check(err)
			w.dur += d
			w.lat = append(w.lat, ms(d))
			added += n
		}
		var cerr error
		if added != len(a.sorted) || st.Len() != len(a.sorted) {
			cerr = fmt.Errorf("ingest: LoadNQuads added %d, Len %d, want %d distinct lines", added, st.Len(), len(a.sorted))
		}
		r.check(cerr)
		out.Reset()
		t0 := time.Now()
		err := st.DumpNQuads(out)
		w.dur += time.Since(t0)
		if err == nil {
			err = a.checkDump(out.Bytes(), rep == 0)
		}
		r.check(err)
		w.ops = float64(added + st.Len())
		runtime.GC()
		next := r.machine.sample()
		w.refs = [2]float64{ref, next}
		ref = next
		ws = append(ws, w)
	}
	r.setWindowed(ws)
	return nil
}
