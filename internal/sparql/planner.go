package sparql

import (
	"math"

	"lodify/internal/store"
)

// Cost-based BGP join planning (DESIGN.md §15). The planner reads the
// store's live per-(predicate, graph) statistics (exact counts +
// distinct-subject/object sketches, store/pstats.go) once per BGP and
// fixes both the join order and the per-edge algorithm:
//
//   - scan: nested-loop index extension — for each intermediate row,
//     substitute its bindings into the pattern and scan the matches.
//     Cost ≈ rows·seek + output.
//   - hash: evaluate the pattern standalone once and hash-join it with
//     the intermediate rows. Cost ≈ pattern-cardinality·build +
//     rows·probe + output. Wins when the intermediate set is large
//     relative to the pattern (and for cartesian edges, which a scan
//     would re-enumerate per row).
//
// Join cardinalities use the textbook distinct-divisor model: joining
// a pattern whose variable at some position is already bound divides
// its enumeration by that position's distinct count. Estimates only
// need the right order of magnitude — mis-estimations surface in
// EXPLAIN ANALYZE as miss factors.
//
// The order is an exact left-deep dynamic program over all 2^n pattern
// subsets up to plannerMaxDP patterns; larger BGPs get a greedy static
// order from the same cost model (cheapest next edge, O(n²)). Either
// way the plan runs through the same fixed-step executor (planexec.go).

// plannerMaxDP bounds the exact DP: 2^10 subset states. Above it the
// greedy order is used (package var so tests can lower it).
var plannerMaxDP = 10

// Cost-model constants, in arbitrary "row visit" units. Only their
// ratios matter: a scan pays one index seek per input row, a hash join
// pays one build visit per pattern row and a cheaper probe per input
// row, and both pay one visit per output row.
const (
	costSeek  = 1.0
	costBuild = 1.0
	costProbe = 0.25
)

// planStep is one join edge of a finished plan.
type planStep struct {
	pat  int  // index into the compiled pattern slice
	hash bool // hash-join the standalone pattern vs index-scan extend
	est  float64
}

// bgpPlan is the planner's output for one (BGP, graph) pair. A plan is
// computed once per executor and cached — OPTIONAL inner groups
// re-evaluate their BGP per input row and must not re-plan each time.
type bgpPlan struct {
	steps []planStep
	// est is the final-cardinality estimate surfaced as estRows.
	est int64
	// empty marks a pattern with an exact zero count: the whole BGP
	// can't match and evaluation short-circuits without taking a lease.
	empty bool
}

// planKey caches plans per syntax node, graph restriction and
// input-binding shape: the same BGP node re-planned under different
// pre-bound variables (a VALUES prefix, an OPTIONAL inner group) gets
// different join orders.
type planKey struct {
	node *BGP
	gid  store.TermID
	mask uint64
}

// patStat is one pattern's planning statistics: base is the expected
// standalone match count (constants already applied), dist the
// distinct-value estimates per position for join-selectivity division.
type patStat struct {
	base float64
	dist [3]float64 // s, p, o
}

// patternStats derives one compiled pattern's statistics from the
// store. Constant-predicate patterns read the maintained
// per-(predicate, graph) series; variable-predicate patterns pay one
// bounded CountIDs probe and use a √n distinct heuristic.
func patternStats(st *store.Store, p compiledPattern, gid store.TermID) patStat {
	isConst := func(ct cpTerm) bool { return ct.slot < 0 && ct.id != 0 }
	if isConst(p.p) {
		ps := st.PredStatIDs(p.p.id, gid)
		dS := math.Max(float64(ps.DistinctS), 1)
		dO := math.Max(float64(ps.DistinctO), 1)
		base := float64(ps.Count)
		if isConst(p.s) {
			base /= dS
		}
		if isConst(p.o) {
			base /= dO
		}
		return patStat{base: base, dist: [3]float64{dS, 1, dO}}
	}
	s, pr, o := resolveConsts(p)
	base := float64(st.CountIDs(s, pr, o, gid))
	d := math.Max(math.Sqrt(base), 1)
	return patStat{base: base, dist: [3]float64{d, d, d}}
}

// resolveConsts yields the id triple for a standalone scan of the
// pattern: constants as-is, variables as wildcards.
func resolveConsts(p compiledPattern) (s, pr, o store.TermID) {
	get := func(ct cpTerm) store.TermID {
		if ct.slot >= 0 {
			return 0
		}
		return ct.id
	}
	return get(p.s), get(p.p), get(p.o)
}

// patSlotMask returns the pattern's variable slots as a bitmask. Slots
// beyond the 64-bit planning domain are left out — they count as never
// bound for estimates, like inputBoundMask treats them. The masks only
// steer the join order: the executor binds slots at run time, so any
// order returns the same answers.
func patSlotMask(p compiledPattern) uint64 {
	var m uint64
	for _, ct := range [3]cpTerm{p.s, p.p, p.o} {
		if ct.slot >= 0 && ct.slot < 64 {
			m |= 1 << uint(ct.slot)
		}
	}
	return m
}

// probeCard estimates how many matches one intermediate row's scan of
// pattern p enumerates, given the set of already-bound slots: the
// standalone cardinality divided by the distinct count of every bound
// position.
func probeCard(p compiledPattern, ps patStat, bound uint64) float64 {
	pc := ps.base
	for pos, ct := range [3]cpTerm{p.s, p.p, p.o} {
		if ct.slot >= 0 && ct.slot < 64 && bound&(1<<uint(ct.slot)) != 0 {
			pc /= ps.dist[pos]
		}
	}
	return math.Max(pc, 1e-9)
}

// edgeCost prices joining one pattern (standalone statistics ps,
// per-row match estimate pc) onto card intermediate rows, choosing
// between an index-scan extension and a hash join.
func edgeCost(card float64, ps patStat, pc float64) (cost float64, hash bool) {
	out := card * pc
	scan := card*costSeek + out
	h := ps.base*costBuild + card*costProbe + out
	if h < scan {
		return h, true
	}
	return scan, false
}

// planBGP returns the plan for the compiled patterns. Plans cache per
// (node, gid, input mask) on the executor; inputRows is the first
// call's input cardinality and scales the scan-vs-hash decision.
func (ex *executor) planBGP(node *BGP, cp []compiledPattern, gid store.TermID, inputRows int, inputMask uint64) *bgpPlan {
	key := planKey{node, gid, inputMask}
	if plan, ok := ex.plans[key]; ok {
		return plan
	}
	plan := ex.buildPlan(cp, gid, inputRows, inputMask)
	if ex.plans == nil {
		ex.plans = make(map[planKey]*bgpPlan)
	}
	ex.plans[key] = plan
	return plan
}

// buildPlan orders the patterns — by the subset DP up to plannerMaxDP
// patterns, greedily above — then fills the cumulative estimate of
// every step. inputMask carries the slots the input rows already bind
// (a VALUES prefix, an earlier group): those count as bound from the
// first step, which is what steers the first join away from standalone
// hash builds when the input is already selective.
func (ex *executor) buildPlan(cp []compiledPattern, gid store.TermID, inputRows int, inputMask uint64) *bgpPlan {
	n := len(cp)
	stats := make([]patStat, n)
	masks := make([]uint64, n)
	for i := range cp {
		stats[i] = patternStats(ex.st, cp[i], gid)
		if stats[i].base == 0 {
			// Exact zero: the maintained counts (and the CountIDs probe)
			// are precise, so this pattern — hence the BGP — matches
			// nothing at planning time.
			return &bgpPlan{empty: true}
		}
		masks[i] = patSlotMask(cp[i])
	}
	card := math.Max(float64(inputRows), 1)
	var steps []planStep
	if n <= plannerMaxDP {
		steps = dpOrder(cp, stats, masks, card, inputMask)
	} else {
		steps = greedyOrder(cp, stats, masks, card, inputMask)
	}
	bound := inputMask
	for i := range steps {
		card *= probeCard(cp[steps[i].pat], stats[steps[i].pat], bound)
		steps[i].est = card
		bound |= masks[steps[i].pat]
	}
	return &bgpPlan{steps: steps, est: estRows(card)}
}

// dpOrder is the exact left-deep subset DP: exponential in len(cp)
// (≤ 2^plannerMaxDP states x ≤ plannerMaxDP transitions).
func dpOrder(cp []compiledPattern, stats []patStat, masks []uint64, card float64, inputMask uint64) []planStep {
	n := len(cp)
	type dpEntry struct {
		cost, card float64
		last       int8
		hash       bool
		ok         bool
	}
	dp := make([]dpEntry, 1<<uint(n))
	dp[0] = dpEntry{card: card, ok: true}
	for mask := 0; mask < len(dp); mask++ {
		if !dp[mask].ok {
			continue
		}
		e := dp[mask]
		bound := inputMask
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				bound |= masks[j]
			}
		}
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				continue
			}
			pc := probeCard(cp[j], stats[j], bound)
			c, useHash := edgeCost(e.card, stats[j], pc)
			cost := e.cost + c
			nm := mask | 1<<uint(j)
			if !dp[nm].ok || cost < dp[nm].cost {
				dp[nm] = dpEntry{cost: cost, card: e.card * pc, last: int8(j), hash: useHash, ok: true}
			}
		}
	}
	// Reconstruct the step order back-to-front.
	steps := make([]planStep, n)
	for mask := len(dp) - 1; mask != 0; {
		e := dp[mask]
		n--
		steps[n] = planStep{pat: int(e.last), hash: e.hash}
		mask &^= 1 << uint(e.last)
	}
	return steps
}

// greedyOrder builds a static order for BGPs above the DP bound: at
// every step it takes the pattern whose edge is cheapest under the
// same cost model, given everything joined so far. O(n²).
func greedyOrder(cp []compiledPattern, stats []patStat, masks []uint64, card float64, inputMask uint64) []planStep {
	steps := make([]planStep, 0, len(cp))
	used := make([]bool, len(cp))
	bound := inputMask
	for len(steps) < len(cp) {
		best, bestCost, bestHash, bestPC := -1, 0.0, false, 0.0
		for j := range cp {
			if used[j] {
				continue
			}
			pc := probeCard(cp[j], stats[j], bound)
			c, h := edgeCost(card, stats[j], pc)
			if best < 0 || c < bestCost {
				best, bestCost, bestHash, bestPC = j, c, h, pc
			}
		}
		used[best] = true
		steps = append(steps, planStep{pat: best, hash: bestHash})
		card *= bestPC
		bound |= masks[best]
	}
	return steps
}

// inputBoundMask samples the input rows and returns the slots bound in
// every sampled row. Used only for cost estimates (a stale bit cannot
// affect execution correctness), so sampling a prefix is fine; slots
// beyond the 64-bit planning domain are conservatively unbound.
func inputBoundMask(input []row) uint64 {
	if len(input) == 0 {
		return 0
	}
	sample := input
	if len(sample) > 64 {
		sample = sample[:64]
	}
	m := ^uint64(0)
	for _, r := range sample {
		var rm uint64
		for i, id := range r {
			if i >= 64 {
				break
			}
			if id != 0 {
				rm |= 1 << uint(i)
			}
		}
		m &= rm
	}
	return m
}

// estRows rounds a cardinality estimate for display, clamped to a
// non-negative int64.
func estRows(card float64) int64 {
	if card < 0 || math.IsNaN(card) {
		return 0
	}
	if card > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(card + 0.5)
}
