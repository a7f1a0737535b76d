package sparql

import (
	"lodify/internal/obs"
)

// Query-level metrics (created once; hot paths pay atomic ops only).
var (
	mQuerySeconds  = obs.H("lodify_sparql_query_seconds")
	mSolutions     = obs.C("lodify_sparql_solutions_total")
	mParseErrors   = obs.C("lodify_sparql_parse_errors_total")
	mUpdateSeconds = obs.H("lodify_sparql_update_seconds")
	mUpdateQuads   = obs.C("lodify_sparql_update_quads_total")
	// ID-space execution accounting: rows produced by id-level BGP
	// joins vs rows materialized into rdf.Term solutions. A healthy
	// ratio (joined >> materialized) means lazy materialization is
	// paying off; parity would mean every joined row also crossed the
	// term boundary.
	mRowsJoined       = obs.C("lodify_sparql_rows_joined_total")
	mRowsMaterialized = obs.C("lodify_sparql_rows_materialized_total")
	// mBGPParallel counts BGP joins that took the parallel path.
	mBGPParallel = obs.C("lodify_sparql_bgp_parallel_total")
)

// nodeKind labels a pattern node in plan trees and per-operator metrics.
func nodeKind(n PatternNode) string {
	switch n.(type) {
	case *BGP:
		return "bgp"
	case *GroupPattern:
		return "group"
	case *OptionalPattern:
		return "optional"
	case *UnionPattern:
		return "union"
	case *MinusPattern:
		return "minus"
	case *GraphPattern:
		return "graph"
	case *SubQuery:
		return "subquery"
	case *BindPattern:
		return "bind"
	case *ValuesPattern:
		return "values"
	default:
		return "other"
	}
}

// formName labels a query form for the query counter.
func formName(f QueryForm) string {
	switch f {
	case FormSelect:
		return "select"
	case FormAsk:
		return "ask"
	case FormConstruct:
		return "construct"
	case FormDescribe:
		return "describe"
	default:
		return "other"
	}
}
