#include "optimizer/cost.h"

#include <algorithm>

#include "query/lazy.h"

namespace smoke {

namespace {

/// Encoded posting lists decode on probe; bias their estimate a little so a
/// same-size raw index wins ties.
constexpr double kDecodePenalty = 1.25;

std::string FmtCost(double c) {
  return "~" + std::to_string(static_cast<long long>(c)) + " rids";
}

void AppendCandidate(std::string* s, const char* name, const StrategyCost& c,
                     bool chosen) {
  if (!s->empty()) *s += "; ";
  *s += name;
  if (!c.feasible) {
    *s += ": infeasible";
    if (!c.note.empty()) *s += " (" + c.note + ")";
    return;
  }
  *s += ": " + FmtCost(c.cost);
  if (!c.note.empty()) *s += " (" + c.note + ")";
  if (chosen) *s += " <- chosen";
}

}  // namespace

std::string TraceCostReport::Summary() const {
  std::string s;
  AppendCandidate(&s, "indexed", indexed, chosen == TraceStrategy::kIndexed);
  AppendCandidate(&s, "skipping", skipping,
                  chosen == TraceStrategy::kSkipping);
  AppendCandidate(&s, "lazy", lazy, chosen == TraceStrategy::kLazy);
  AppendCandidate(&s, "cube", cube, chosen == TraceStrategy::kCube);
  return s;
}

bool PushdownCoversRelation(const TraceSource& src,
                            const std::string& relation) {
  if (src.query != nullptr) return src.query->fact_name == relation;
  if (src.artifacts != nullptr && src.artifacts->lineage.num_inputs() > 0) {
    return src.artifacts->lineage.input(0).table_name == relation;
  }
  return false;
}

bool ResolveSkipCode(const TraceSource& src, const std::string& relation,
                     const std::vector<Predicate>& filters, uint32_t* code) {
  const SPJAResult* artifacts = src.artifacts;
  if (artifacts == nullptr || artifacts->skip_dict.num_codes == 0) {
    return false;
  }
  // The partitioned index itself must still be resident — budget eviction
  // drops it (keeping the dictionary), and a skipping trace over empty
  // partitions would silently answer wrong / error instead of taking the
  // lazy fallback.
  if (artifacts->skip_index.num_codes() == 0) return false;
  if (!PushdownCoversRelation(src, relation)) return false;
  const std::vector<int>& cols = artifacts->applied_pushdown.skip_cols;
  if (cols.empty()) return false;
  std::string key;
  for (size_t i = 0; i < cols.size(); ++i) {
    const Predicate* found = nullptr;
    for (const Predicate& p : filters) {
      if (p.col == cols[i] && p.op == CmpOp::kEq && p.rhs_col < 0) {
        found = &p;
        break;
      }
    }
    if (found == nullptr) return false;
    if (i) key.push_back('\x1f');
    if (found->type == DataType::kString) {
      key += found->sval;
    } else if (found->type == DataType::kInt64) {
      key += std::to_string(found->ival);
    } else {
      return false;  // float partition keys are not dictionary-stable
    }
  }
  uint32_t c = artifacts->skip_dict.CodeForString(key);
  if (c == UINT32_MAX) return false;
  *code = c;
  return true;
}

bool LazyFeasible(const TraceSource& src, const std::string& relation,
                  const std::vector<rid_t>& seeds) {
  if (src.query == nullptr || src.output == nullptr) return false;
  if (seeds.size() != 1 || seeds[0] >= src.output->num_rows()) return false;
  if (src.query->fact_name != relation) return false;
  return LazyRewriteAvailable(*src.query);
}

namespace {

/// Prices a probe of `index` with `seeds` from the probed lists alone:
/// the sum of their sizes (O(1) per raw list, a scan of the list's encoded
/// words per encoded list), never a pass over the whole index.
StrategyCost CostIndexProbe(const LineageIndex& index,
                            const std::vector<rid_t>& seeds,
                            const TraceSourceStats& stats) {
  StrategyCost c;
  c.feasible = true;
  const size_t n = index.size();
  switch (index.kind()) {
    case LineageIndex::Kind::kIndex: {
      size_t edges = 0;
      for (rid_t s : seeds) {
        if (s < n) edges += index.index().list(s).size();
      }
      c.cost = static_cast<double>(edges);
      c.note = "raw postings";
      break;
    }
    case LineageIndex::Kind::kArray:
      c.cost = static_cast<double>(seeds.size());
      c.note = "1:1 array";
      break;
    case LineageIndex::Kind::kSparseArray: {
      size_t edges = 0;
      for (rid_t s : seeds) {
        if (s < n) edges += index.sparse_array().ListSize(s);
      }
      c.cost = static_cast<double>(edges);
      c.note = "sparse 1:1";
      break;
    }
    case LineageIndex::Kind::kEncodedArray:
      c.cost = static_cast<double>(seeds.size()) * kDecodePenalty;
      c.note = "encoded 1:1";
      break;
    case LineageIndex::Kind::kEncodedIndex: {
      size_t edges = 0;
      for (rid_t s : seeds) {
        if (s < n) edges += index.encoded_postings().ListSize(s);
      }
      c.cost = static_cast<double>(edges) * kDecodePenalty;
      c.note = "encoded postings";
      break;
    }
    case LineageIndex::Kind::kNone:
      c.feasible = false;
      c.note = "no backward index";
      break;
  }
  if (c.feasible && stats.valid) {
    c.note += ", store " + std::string(LineageCodecName(stats.codec)) + "/" +
              std::to_string(stats.store_bytes) + "B";
  }
  return c;
}

}  // namespace

TraceCostReport CostTraceStrategies(const TraceSource& src,
                                    const std::string& relation,
                                    const std::vector<rid_t>& seeds,
                                    const std::vector<Predicate>& filters) {
  TraceCostReport r;

  // ---- indexed: probe the captured backward index ----
  if (src.lineage == nullptr) {
    r.indexed.note = "no lineage";
  } else if (src.lineage->evicted()) {
    r.indexed.note = "index evicted";
  } else {
    int idx = src.lineage->FindInput(relation);
    if (idx < 0) {
      r.indexed.note = "relation not in lineage";
    } else {
      r.indexed = CostIndexProbe(
          src.lineage->input(static_cast<size_t>(idx)).backward, seeds,
          src.stats);
    }
  }

  // ---- skipping: scan one partition per seed ----
  if (ResolveSkipCode(src, relation, filters, &r.skip_code)) {
    const PartitionedRidIndex& pidx = src.artifacts->skip_index;
    const size_t outputs = pidx.num_outputs();
    size_t edges = 0;
    for (rid_t s : seeds) {
      if (s < outputs) edges += pidx.PartitionSize(s, r.skip_code);
    }
    r.skipping.feasible = true;
    r.skipping.cost = static_cast<double>(edges);
    r.skipping.note =
        std::to_string(pidx.num_codes()) + " partitions/output, code " +
        std::to_string(r.skip_code);
  } else {
    r.skipping.note = "no resident covering partition index / unpinned keys";
  }

  // ---- lazy: full rescan of the fact relation with rewritten predicates.
  // Transparent only for evicted sources: a pruned or push-down-replaced
  // index restricts lineage on purpose and must error, not silently rescan;
  // and the lazy plan's output shape differs (no rid column), so it never
  // competes on cost with a live index.
  const bool evicted = src.lineage != nullptr && src.lineage->evicted();
  if (evicted && LazyFeasible(src, relation, seeds)) {
    r.lazy.feasible = true;
    r.lazy.cost = static_cast<double>(src.query->fact->num_rows());
    r.lazy.note = "full fact rescan";
  } else {
    r.lazy.note = evicted ? "lazy rewrite unavailable" : "index not evicted";
  }

  // ---- cube: lookup of materialized sub-aggregates (reported, never
  // auto-chosen: cube lineage is not chainable) ----
  if (src.artifacts != nullptr && src.artifacts->cube.enabled() &&
      seeds.size() == 1 && filters.empty()) {
    r.cube.feasible = true;
    r.cube.cost = 1;
    r.cube.note = "opt-in only";
  } else {
    r.cube.note = "no cube push-down artifacts";
  }

  // ---- choose: cheapest transparent candidate; ties prefer skipping (it
  // touches the same rids with better locality), then indexed ----
  if (r.skipping.feasible && r.indexed.feasible) {
    r.chosen = r.skipping.cost <= r.indexed.cost ? TraceStrategy::kSkipping
                                                 : TraceStrategy::kIndexed;
  } else if (r.skipping.feasible) {
    r.chosen = TraceStrategy::kSkipping;
  } else if (r.indexed.feasible) {
    r.chosen = TraceStrategy::kIndexed;
  } else if (r.lazy.feasible) {
    r.chosen = TraceStrategy::kLazy;
  } else {
    // Nothing feasible: resolve to indexed so execution reports the real
    // error instead of the optimizer guessing.
    r.chosen = TraceStrategy::kIndexed;
  }
  return r;
}

}  // namespace smoke
