package sparql

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lodify/internal/store"
)

// Execution of BGP plans (planner.go). The step order is fixed, so no
// per-row count probes are paid. Consecutive scan steps fuse into one
// backtracking nested-loop run with in-place binding scratch
// (solutions clone only at emission); hash steps evaluate their
// pattern standalone once and merge through joinRowsHash. Under a
// profiler every step runs on its own, materialized, so EXPLAIN
// ANALYZE can report actual per-step cardinalities against the
// estimates.

// Parallel BGP evaluation tuning (package vars so tests can pin them).
// A scan run whose input has at least bgpParallelThreshold rows fans
// out across up to bgpMaxWorkers goroutines, each with its own read
// lease; smaller inputs stay sequential so cheap queries pay no
// synchronization overhead. Output order is identical either way:
// workers own contiguous input chunks and results concatenate in chunk
// order.
var (
	bgpParallelThreshold = 64
	bgpMaxWorkers        = runtime.GOMAXPROCS(0)
)

// execPlan runs a plan over the input rows.
func (ex *executor) execPlan(plan *bgpPlan, plain []TriplePattern, cp []compiledPattern, gid store.TermID, input []row) []row {
	if plan.empty || len(input) == 0 {
		return nil
	}
	ex.prof.setTopEst(plan.est)
	cur := input
	for i := 0; i < len(plan.steps); {
		step := plan.steps[i]
		// Unprofiled, a run of consecutive scan steps fuses into one
		// backtracking pass — no intermediate materialization between
		// them. Profiled, every step is its own run.
		j := i + 1
		for ex.prof == nil && !step.hash && j < len(plan.steps) && !plan.steps[j].hash {
			j++
		}
		child := ex.prof.stepChild(stepKey{plan: plan, idx: i}, step, plain[step.pat])
		start := ex.prof.now()
		rowsIn := len(cur)
		// A step after an empty one records zero actuals only: a hash
		// step's standalone build scan could produce no join rows.
		if rowsIn > 0 {
			if step.hash {
				cur = joinRowsHash(cur, ex.scanPattern(cp[step.pat], gid))
				atomic.AddInt64(&ex.rowsJoined, int64(len(cur)))
			} else {
				order := make([]int, 0, j-i)
				for k := i; k < j; k++ {
					order = append(order, plan.steps[k].pat)
				}
				cur = ex.joinFixed(order, cp, gid, cur)
			}
		}
		ex.prof.stepExit(child, start, rowsIn, len(cur), len(ex.fr.names))
		i = j
	}
	return cur
}

// stepKey identifies one plan step across re-evaluations (OPTIONAL
// inner BGPs run once per input row and must aggregate per step).
type stepKey struct {
	plan *bgpPlan
	idx  int
}

// stepOp names a plan step's join algorithm in plan trees.
func stepOp(s planStep) string {
	if s.hash {
		return "hash-join"
	}
	return "scan"
}

// joinFixed extends the input rows through the given pattern order,
// fanning out over parallel workers when the input is large.
func (ex *executor) joinFixed(order []int, cp []compiledPattern, gid store.TermID, input []row) []row {
	if len(input) >= bgpParallelThreshold && bgpMaxWorkers > 1 {
		return ex.joinFixedParallel(order, cp, gid, input)
	}
	lease := ex.st.ReadLease()
	ex.prof.addLease(lease.Wait())
	out := ex.joinFixedSeq(lease, order, cp, gid, input)
	lease.Release()
	atomic.AddInt64(&ex.rowsJoined, int64(len(out)))
	return out
}

// joinFixedSeq is the single-lease nested-loop run over the fixed
// pattern order. The per-row scratch binding row is reused across
// rows: backtracking fully restores it after each row.
func (ex *executor) joinFixedSeq(lease *store.Lease, order []int, cp []compiledPattern, gid store.TermID, input []row) []row {
	if len(input) == 0 {
		return nil
	}
	scratch := make(row, len(input[0]))
	var out []row
	for _, r := range input {
		copy(scratch, r)
		out = ex.fixedStep(lease, order, cp, 0, gid, scratch, out)
	}
	return out
}

// joinFixedParallel fans the run out over contiguous chunks of the
// input rows. Each worker holds its own lease and produces only store
// ids (pattern matching never interns), so workers share no mutable
// state; chunk results concatenate in order, keeping the output
// identical to the sequential path.
func (ex *executor) joinFixedParallel(order []int, cp []compiledPattern, gid store.TermID, input []row) []row {
	mBGPParallel.Inc()
	workers := bgpMaxWorkers
	if workers > len(input) {
		workers = len(input)
	}
	chunk := (len(input) + workers - 1) / workers
	results := make([][]row, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(input) {
			break
		}
		hi := min(lo+chunk, len(input))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			lease := ex.st.ReadLease()
			defer lease.Release()
			ex.prof.addLease(lease.Wait())
			out := ex.joinFixedSeq(lease, order, cp, gid, input[lo:hi])
			atomic.AddInt64(&ex.rowsJoined, int64(len(out)))
			results[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, rs := range results {
		total += len(rs)
	}
	out := make([]row, 0, total)
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out
}

// fixedStep extends cur by the pattern at order[k], recursing down the
// fixed order. Bindings are in-place with backtracking; complete rows
// clone at emission.
func (ex *executor) fixedStep(lease *store.Lease, order []int, cp []compiledPattern, k int, gid store.TermID, cur row, out []row) []row {
	if k == len(order) {
		return append(out, cur.clone())
	}
	pat := cp[order[k]]
	s, p, o := resolveIDs(pat, cur)
	lease.MatchIDs(s, p, o, gid, func(ms, mp, mo, _ store.TermID) bool {
		// Bind the unbound variable positions, tracking slots to undo.
		// Already-bound slots were substituted into the scan pattern, so
		// they can only conflict on repeated-variable patterns.
		var touched [3]int
		n := 0
		bind := func(ct cpTerm, val store.TermID) bool {
			if ct.slot < 0 {
				return true
			}
			if cur[ct.slot] != 0 {
				return cur[ct.slot] == val
			}
			cur[ct.slot] = val
			touched[n] = ct.slot
			n++
			return true
		}
		if bind(pat.s, ms) && bind(pat.p, mp) && bind(pat.o, mo) {
			out = ex.fixedStep(lease, order, cp, k+1, gid, cur, out)
		}
		for i := 0; i < n; i++ {
			cur[touched[i]] = 0
		}
		return true
	})
	return out
}

// resolveIDs substitutes the current bindings into a compiled pattern,
// yielding the id triple to scan for (0 = wildcard).
func resolveIDs(p compiledPattern, cur row) (s, pr, o store.TermID) {
	get := func(ct cpTerm) store.TermID {
		if ct.slot >= 0 {
			return cur[ct.slot]
		}
		return ct.id
	}
	return get(p.s), get(p.p), get(p.o)
}

// scanPattern evaluates one pattern standalone — constants only, every
// variable a wildcard — into full-width rows for a hash-join build
// side, under its own short lease.
func (ex *executor) scanPattern(p compiledPattern, gid store.TermID) []row {
	lease := ex.st.ReadLease()
	ex.prof.addLease(lease.Wait())
	defer lease.Release()
	width := len(ex.fr.names)
	var out []row
	s, pr, o := resolveConsts(p)
	lease.MatchIDs(s, pr, o, gid, func(ms, mp, mo, _ store.TermID) bool {
		r := make(row, width)
		if bindScan(r, p.s, ms) && bindScan(r, p.p, mp) && bindScan(r, p.o, mo) {
			out = append(out, r)
		}
		return true
	})
	atomic.AddInt64(&ex.rowsJoined, int64(len(out)))
	return out
}

// bindScan binds one scan match position into a fresh row; a repeated
// variable must match its earlier binding.
func bindScan(r row, ct cpTerm, val store.TermID) bool {
	if ct.slot < 0 {
		return true
	}
	if r[ct.slot] != 0 {
		return r[ct.slot] == val
	}
	r[ct.slot] = val
	return true
}
