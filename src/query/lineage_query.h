// Lineage query evaluation over captured indexes (paper Sections 2.1, 6.3).
//
// Backward queries Lb(O' ⊆ O, R) return the input records that contributed
// to a subset of outputs; forward queries Lf(R' ⊆ R, O) the outputs derived
// from a subset of inputs. Smoke evaluates both as secondary index scans:
// probe the rid index, then index directly into the relation's arrays.
//
// Every entry point validates each rid against the index universe before
// probing (an out-of-range rid is a data error, not UB) and returns a
// Status; they are the shared core behind the SmokeEngine facade and the
// plan-level Trace operator (plan/operators.cc).
#ifndef SMOKE_QUERY_LINEAGE_QUERY_H_
#define SMOKE_QUERY_LINEAGE_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "lineage/query_lineage.h"
#include "storage/table.h"

namespace smoke {

/// Backward lineage with bounds validation: input rids of `table_name`
/// reachable from `out_rids`. Fails with NotFound when the relation is not
/// a lineage input, InvalidArgument when its backward index was not
/// captured or an out_rid is out of range. Duplicates are preserved when
/// `dedup` is false (why-provenance witness alignment).
Status BackwardRidsChecked(const QueryLineage& lineage,
                           const std::string& table_name,
                           const std::vector<rid_t>& out_rids, bool dedup,
                           std::vector<rid_t>* out);

/// Forward lineage with bounds validation: output rids reachable from
/// `in_rids` of `table_name`. Same failure modes as BackwardRidsChecked.
Status ForwardRidsChecked(const QueryLineage& lineage,
                          const std::string& table_name,
                          const std::vector<rid_t>& in_rids, bool dedup,
                          std::vector<rid_t>* out);

/// SELECT * FROM L(...) with bounds validation: materializes the traced
/// rows into `*out`; fails with InvalidArgument on an out-of-range rid.
Status MaterializeRowsChecked(const Table& table,
                              const std::vector<rid_t>& rids, Table* out);

}  // namespace smoke

#endif  // SMOKE_QUERY_LINEAGE_QUERY_H_
