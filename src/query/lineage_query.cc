#include "query/lineage_query.h"

namespace smoke {

namespace {

/// Probes `index` for every rid in `from` (all already validated against
/// `index.size()`) into `*out`, deduplicating targets over `universe` when
/// asked. A target outside the universe fails before it is marked, and
/// leaves `*out` as it was.
Status Trace(const LineageIndex& index, size_t universe,
             const std::vector<rid_t>& from, bool dedup,
             std::vector<rid_t>* out) {
  std::vector<rid_t> traced;
  if (!dedup) {
    for (rid_t f : from) index.TraceInto(f, &traced);
    *out = std::move(traced);
    return Status::OK();
  }
  std::vector<uint8_t> seen(universe, 0);
  std::vector<rid_t> raw;
  for (rid_t f : from) {
    raw.clear();
    index.TraceInto(f, &raw);
    for (rid_t r : raw) {
      if (r >= universe) {
        return Status::InvalidArgument(
            "traced rid " + std::to_string(r) + " out of range [0, " +
            std::to_string(universe) + ")");
      }
      if (!seen[r]) {
        seen[r] = 1;
        traced.push_back(r);
      }
    }
  }
  *out = std::move(traced);
  return Status::OK();
}

Status ValidateRids(const std::vector<rid_t>& rids, size_t universe,
                    const char* what) {
  for (rid_t r : rids) {
    if (r >= universe) {
      return Status::InvalidArgument(
          std::string(what) + " rid " + std::to_string(r) +
          " out of range [0, " + std::to_string(universe) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

Status BackwardRidsChecked(const QueryLineage& lineage,
                           const std::string& table_name,
                           const std::vector<rid_t>& out_rids, bool dedup,
                           std::vector<rid_t>* out) {
  int i = lineage.FindInput(table_name);
  if (i < 0) {
    return Status::NotFound("relation '" + table_name +
                            "' in query lineage");
  }
  const TableLineage& tl = lineage.input(static_cast<size_t>(i));
  if (tl.backward.empty()) {
    if (lineage.evicted()) {
      return Status::InvalidArgument(
          "backward lineage for '" + table_name +
          "' was evicted under the lineage memory budget (re-execute the "
          "query or raise the budget)");
    }
    return Status::InvalidArgument(
        "backward lineage for '" + table_name +
        "' was not captured (pruned or mode without indexes)");
  }
  SMOKE_RETURN_NOT_OK(
      ValidateRids(out_rids, tl.backward.size(), "output"));
  // Deduplication marks rids over the relation's universe.
  if (dedup && tl.table == nullptr) {
    return Status::InvalidArgument("relation table not available");
  }
  size_t universe = tl.table != nullptr ? tl.table->num_rows() : 0;
  return Trace(tl.backward, universe, out_rids, dedup, out);
}

Status ForwardRidsChecked(const QueryLineage& lineage,
                          const std::string& table_name,
                          const std::vector<rid_t>& in_rids, bool dedup,
                          std::vector<rid_t>* out) {
  int i = lineage.FindInput(table_name);
  if (i < 0) {
    return Status::NotFound("relation '" + table_name +
                            "' in query lineage");
  }
  const TableLineage& tl = lineage.input(static_cast<size_t>(i));
  if (tl.forward.empty()) {
    if (lineage.evicted()) {
      return Status::InvalidArgument(
          "forward lineage for '" + table_name +
          "' was evicted under the lineage memory budget (forward traces "
          "have no lazy rewrite; re-execute the query or raise the budget)");
    }
    return Status::InvalidArgument("forward lineage for '" + table_name +
                                   "' was not captured");
  }
  SMOKE_RETURN_NOT_OK(ValidateRids(in_rids, tl.forward.size(), "input"));
  return Trace(tl.forward, lineage.output_cardinality(), in_rids, dedup, out);
}

Status MaterializeRowsChecked(const Table& table,
                              const std::vector<rid_t>& rids, Table* out) {
  SMOKE_RETURN_NOT_OK(ValidateRids(rids, table.num_rows(), "traced"));
  Table result(table.schema());
  result.Reserve(rids.size());
  for (rid_t r : rids) result.AppendRowFrom(table, r);
  *out = std::move(result);
  return Status::OK();
}

}  // namespace smoke
