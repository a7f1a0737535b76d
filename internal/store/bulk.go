package store

import (
	"slices"
	"sync"
	"time"

	"lodify/internal/geo"
	"lodify/internal/obs"
	"lodify/internal/rdf"
)

// Bulk ingest (DESIGN.md §10, §14): where Add pays four dictionary
// acquisitions, one shard lock and per-quad secondary indexing for
// every statement, the BulkLoader amortizes all of it across a batch —
// one read-locked dictionary sweep plus one write-locked miss pass,
// id-space deduplication, tokenization and WKT parsing outside the
// store locks, then one write-lock hold per touched shard that
// bulk-inserts into the graph indexes and merges text-index deltas
// grouped by object term. On a sharded store the per-shard applies run
// in parallel: the batch sort already groups quads by (graph, subject)
// — the same key shard routing hashes — so each shard's slice of the
// batch keeps the memoization-friendly order.

// Process-wide ingest metrics.
var (
	mIngestQuads   = obs.C("lodify_ingest_quads_total")
	mIngestBatches = obs.C("lodify_ingest_batches_total")
	mIngestApply   = obs.H("lodify_ingest_batch_apply_seconds")
	gIngestWorkers = obs.G("lodify_ingest_parse_workers")
	// gIngestUtil is parse-worker utilization of the last chunked load,
	// in permille (gauges are integral).
	gIngestUtil = obs.G("lodify_ingest_parse_utilization_permille")
	gIngestRate = obs.G("lodify_ingest_rate_quads_per_second")
)

// geoPt is a parsed geo:geometry object staged for apply.
type geoPt struct {
	pt geo.Point
	ok bool
}

// shardScratch is one shard's reusable apply-phase state. The text
// postCache must be per shard: postings resolve against the shard's
// own text segment.
type shardScratch struct {
	// postCache maps a distinct literal-object id to its resolved
	// postings (one per token, carved from postSlab), so repeated
	// literals in a shard's slice of the batch hit the string-keyed
	// text index once.
	postCache map[TermID][]*posting
	postSlab  []*posting
	// addedQ collects this shard's applied quads for the commit hooks
	// (only populated while a hook is registered).
	addedQ []IDQuad
}

// BulkLoader ingests batches of quads with one lock acquisition per
// touched shard per batch. It is not safe for concurrent use (callers
// feed it from one goroutine — the chunked parser's emit callback
// already is); the store itself stays fully concurrent-safe for other
// readers/writers between and during batches. A batch is not applied
// atomically across shards: concurrent readers may observe one
// shard's slice of a batch before another's — bulk load promises
// final-state equivalence, not mid-load isolation (use Txn for that).
//
// Batch terms may alias parser chunk memory: everything the store
// retains is cloned at intern time, so no input buffer outlives the
// AddBatch call.
type BulkLoader struct {
	st    *Store
	added int

	// Scratch reused across batches: per-quad parallel arrays (resolved
	// ids, text tokens, parsed points) plus the sorted apply order.
	iquads   []iquad
	hashes   []uint64
	toks     [][]string
	geos     []geoPt
	order    []int32
	keys     []uint64
	tokCache map[TermID][]string

	// Per-shard apply state: the sorted order bucketed by shard, each
	// shard's text scratch, and each worker's added count.
	shardOrder [][]int32
	scratch    []shardScratch
	addedBy    []int
	// collect arms per-shard delta collection for the current batch; it
	// is sampled once per AddBatch so a hook registered mid-apply waits
	// for the next batch.
	collect bool
}

// NewBulkLoader returns a loader feeding st.
func (st *Store) NewBulkLoader() *BulkLoader {
	bl := &BulkLoader{
		st:         st,
		tokCache:   make(map[TermID][]string),
		shardOrder: make([][]int32, len(st.shards)),
		scratch:    make([]shardScratch, len(st.shards)),
		addedBy:    make([]int, len(st.shards)),
	}
	for i := range bl.scratch {
		bl.scratch[i].postCache = make(map[TermID][]*posting)
	}
	return bl
}

// Added returns the total number of quads this loader actually
// inserted (duplicates excluded).
func (bl *BulkLoader) Added() int { return bl.added }

// AddBatch ingests one batch. Every quad's triple component must be
// valid RDF; an invalid quad fails the whole batch before anything is
// applied. It returns the number of quads that were new to the store.
func (bl *BulkLoader) AddBatch(quads []rdf.Quad) (int, error) {
	if len(quads) == 0 {
		return 0, nil
	}
	for _, q := range quads {
		if err := q.Triple().Validate(); err != nil {
			return 0, err
		}
	}
	st := bl.st
	bl.iquads, bl.hashes = st.dict.internQuads(quads, bl.iquads, bl.hashes)

	// Precompute secondary-index work outside the lock. Repeated
	// literal objects (ratings, shared tags) tokenize once per batch.
	// Duplicates — in-batch or already stored — need no pre-filter
	// here: the index insert below rejects them in id space, and a
	// duplicate's staged tokens are simply never merged.
	clear(bl.tokCache)
	if cap(bl.toks) < len(quads) {
		bl.toks = make([][]string, len(quads))
		bl.geos = make([]geoPt, len(quads))
	} else {
		bl.toks = bl.toks[:len(quads)]
		bl.geos = bl.geos[:len(quads)]
		clear(bl.toks)
		clear(bl.geos)
	}
	for i, e := range bl.iquads {
		if q := quads[i]; q.O.IsLiteral() {
			toks, ok := bl.tokCache[e.o]
			if !ok {
				toks = Tokenize(q.O.Value())
				bl.tokCache[e.o] = toks
			}
			bl.toks[i] = toks
			if q.P.Value() == rdf.GeoGeometry {
				if pt, err := geo.ParseWKT(q.O.Value()); err == nil {
					bl.geos[i] = geoPt{pt: pt, ok: true}
				}
			}
		}
	}

	// Sort an index over the batch by (g, s) id — the store's final
	// state is order-independent within a batch (ids were assigned in
	// input order above, index postings are sorted sets, text refcounts
	// and geo inserts commute), and grouping by graph and subject is
	// what turns the lookups below into memo hits. When the ids fit —
	// any store under 16M terms whose graph terms landed in the first
	// 1M, i.e. essentially every bulk load — the key packs into a
	// uint64 with the batch index in the low bits, and a comparator-free
	// slices.Sort replaces the 4-field SortFunc.
	bl.order = bl.order[:0]
	var maxG, maxS TermID
	for _, e := range bl.iquads {
		maxG, maxS = max(maxG, e.g), max(maxS, e.s)
	}
	if maxG < 1<<20 && maxS < 1<<24 && len(bl.iquads) <= 1<<20 {
		keys := bl.keys[:0]
		for i, e := range bl.iquads {
			keys = append(keys, uint64(e.g)<<44|uint64(e.s)<<20|uint64(i))
		}
		slices.Sort(keys)
		bl.keys = keys
		for _, k := range keys {
			bl.order = append(bl.order, int32(k&(1<<20-1)))
		}
	} else {
		for i := range bl.iquads {
			bl.order = append(bl.order, int32(i))
		}
		slices.SortFunc(bl.order, func(a, b int32) int { return cmpIquad(bl.iquads[a], bl.iquads[b]) })
	}

	// Apply with one write-lock hold per touched shard. Sharding is by
	// the same (g, s) pair the sort grouped on, so bucketing the sorted
	// order by shard preserves each shard's (g, s) runs — graph and
	// subject-node lookups stay memoized across the runs, predicate and
	// object nodes via small rings; text postings resolve once per
	// distinct literal object per shard via that shard's postCache.
	start := time.Now()
	added := 0
	bl.collect = st.hooks.active()
	if len(st.shards) == 1 {
		added = bl.applyShard(st.shards[0], bl.order, &bl.scratch[0])
	} else {
		for i := range bl.shardOrder {
			bl.shardOrder[i] = bl.shardOrder[i][:0]
		}
		for _, idx := range bl.order {
			e := bl.iquads[idx]
			k := st.shardIndex(e.g, e.s)
			bl.shardOrder[k] = append(bl.shardOrder[k], idx)
		}
		// Shard applies are independent (disjoint index state, disjoint
		// scratch) and run concurrently — this is where ingest scales
		// across cores.
		var wg sync.WaitGroup
		for k := range st.shards {
			if len(bl.shardOrder[k]) == 0 {
				// Untouched this batch: its delta slice still holds the
				// previous batch's adds, which must not be re-announced.
				bl.addedBy[k] = 0
				bl.scratch[k].addedQ = bl.scratch[k].addedQ[:0]
				continue
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				bl.addedBy[k] = bl.applyShard(st.shards[k], bl.shardOrder[k], &bl.scratch[k])
			}(k)
		}
		wg.Wait()
		for _, n := range bl.addedBy {
			added += n
		}
	}
	st.size.Add(int64(added))
	if bl.collect {
		// Merge the per-shard delta slices and deliver one batch-level
		// notification, after every shard lock is back down.
		var quadsAdded []IDQuad
		for i := range bl.scratch {
			quadsAdded = append(quadsAdded, bl.scratch[i].addedQ...)
		}
		st.fireCommit(quadsAdded, nil)
	}

	mIngestApply.ObserveSince(start)
	mIngestBatches.Inc()
	mIngestQuads.Add(int64(len(quads)))
	mQuadsAdded.Add(int64(added))
	bl.added += added
	return added, nil
}

// applyShard applies one shard's slice of the sorted batch under that
// shard's write lock and returns how many quads were new. The slice
// preserves the batch's (g, s) sort order, so the same memoization as
// the single-lock apply holds per shard.
func (bl *BulkLoader) applyShard(sh *shard, idxs []int32, sc *shardScratch) int {
	clear(sc.postCache)
	sc.postSlab = sc.postSlab[:0]
	sc.addedQ = sc.addedQ[:0]
	sh.mu.Lock()
	added := 0
	var gi *graphIndex
	var spoNode *pairSet
	var posMemo, ospMemo nodeMemo
	gcur := AnyGraph // sentinel: AnyGraph is never a stored graph id
	scur := AnyGraph // likewise never a stored subject id
	for _, idx := range idxs {
		e := bl.iquads[idx]
		if gi == nil || e.g != gcur {
			var ok bool
			gi, ok = sh.graphs[e.g]
			if !ok {
				gi = newGraphIndex()
				sh.graphs[e.g] = gi
				sh.gids, _ = sh.gids.insert(e.g)
			}
			gcur, scur = e.g, AnyGraph
			posMemo.reset()
			ospMemo.reset()
		}
		if e.s != scur {
			spoNode = gi.spo.node(e.s, gi)
			scur = e.s
		}
		posN := posMemo.get(gi.pos, gi, e.p)
		ospN := ospMemo.get(gi.osp, gi, e.o)
		if !gi.addNodes(spoNode, posN, ospN, e.s, e.p, e.o) {
			continue // already stored: secondary indexes unchanged
		}
		sh.size++
		added++
		sh.statAdd(e.g, e.p, e.s, e.o)
		if bl.collect {
			sc.addedQ = append(sc.addedQ, IDQuad{S: e.s, P: e.p, O: e.o, G: e.g})
		}
		if toks := bl.toks[idx]; len(toks) > 0 {
			posts, ok := sc.postCache[e.o]
			if !ok {
				lo := len(sc.postSlab)
				sc.postSlab = sh.text.resolvePostings(sc.postSlab, toks)
				posts = sc.postSlab[lo:len(sc.postSlab):len(sc.postSlab)]
				sc.postCache[e.o] = posts
			}
			for _, p := range posts {
				p.add(e.s)
			}
		}
		if gp := bl.geos[idx]; gp.ok {
			sh.geo.Insert(uint64(e.s), gp.pt)
		}
	}
	if added > 0 {
		sh.epoch = bl.st.epoch.Add(1)
	}
	sh.mu.Unlock()
	return added
}
