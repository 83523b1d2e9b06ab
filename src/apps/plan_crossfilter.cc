#include "apps/plan_crossfilter.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "query/lineage_query.h"

namespace smoke {

Status PlanCrossfilter::AddView(std::string name, const LogicalPlan& plan,
                                const CaptureOptions& opts) {
  if (Find(name) != nullptr) {
    return Status::AlreadyExists("view '" + name + "'");
  }
  View v;
  v.name = std::move(name);
  SMOKE_RETURN_NOT_OK(ExecutePlan(plan, opts, &v.result));
  int idx = v.result.lineage.FindInput(relation_);
  if (idx < 0) {
    return Status::InvalidArgument("view '" + v.name +
                                   "' has no lineage on shared relation '" +
                                   relation_ + "'");
  }
  const TableLineage& tl = v.result.lineage.input(static_cast<size_t>(idx));
  if (tl.backward.empty() || tl.forward.empty()) {
    return Status::InvalidArgument(
        "view '" + v.name +
        "' must capture backward and forward lineage on '" + relation_ + "'");
  }
  views_.push_back(std::move(v));
  return Status::OK();
}

std::vector<std::string> PlanCrossfilter::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const View& v : views_) names.push_back(v.name);
  return names;
}

Status PlanCrossfilter::ViewOutput(const std::string& name,
                                   const Table** out) const {
  const View* v = Find(name);
  if (v == nullptr) return Status::NotFound("view '" + name + "'");
  *out = &v->result.output;
  return Status::OK();
}

const PlanCrossfilter::View* PlanCrossfilter::Find(
    const std::string& name) const {
  for (const View& v : views_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

namespace {

/// Forward-counts `bar` (n relation rows, largest `max_rid`) into target
/// `to`: every forward edge bumps the counter of the target row it
/// reaches, and a row joins `out->rids` when its counter first leaves zero
/// (first-seen order).
Status CountLinked(const PlanResult& to, const std::string& relation,
                   const rid_t* bar, size_t n, rid_t max_rid,
                   LinkedBrush* out) {
  int idx = to.lineage.FindInput(relation);
  if (idx < 0) {
    return Status::NotFound("relation '" + relation +
                            "' in trace source lineage");
  }
  const LineageIndex& fw = to.lineage.input(static_cast<size_t>(idx)).forward;
  if (fw.empty()) {
    return Status::InvalidArgument(
        "forward lineage for '" + relation + "' was " +
        (to.lineage.evicted() ? "evicted under the lineage memory budget"
                              : "not captured"));
  }
  if (n > 0 && max_rid >= fw.size()) {
    return Status::InvalidArgument("chained trace seed rid " +
                                   std::to_string(max_rid) + " out of range");
  }

  const size_t num_rows = to.output.num_rows();
  std::vector<int64_t> count(num_rows, 0);
  // A row is seen first at most once: one slot per row.
  std::vector<rid_t>& rids = out->rids;
  rids.resize(num_rows);
  size_t linked = 0;
  rid_t bad = kInvalidRid;
  auto visit = [&](rid_t t) {
    if (t >= num_rows) {
      bad = t;
    } else if (count[t]++ == 0) {
      rids[linked++] = t;
    }
  };
  if (fw.kind() == LineageIndex::Kind::kArray) {
    // A histogram's raw 1:1 forward: one load per relation row.
    const rid_t* to_row = fw.array().data();
    for (size_t i = 0; i < n; ++i) {
      const rid_t t = to_row[bar[i]];
      if (t != kInvalidRid) visit(t);
    }
  } else {
    for (size_t i = 0; i < n; ++i) fw.ForEachRelated(bar[i], visit);
  }
  if (bad != kInvalidRid) {
    return Status::InvalidArgument("traced rid " + std::to_string(bad) +
                                   " out of range for endpoint");
  }
  rids.resize(linked);
  out->counts.resize(linked);
  for (size_t i = 0; i < linked; ++i) out->counts[i] = count[rids[i]];
  return MaterializeRowsChecked(to.output, rids, &out->rows);
}

}  // namespace

Status BrushLinkedPlans(const PlanResult& from, rid_t out_rid,
                        const std::string& relation,
                        const std::vector<BrushTarget>& targets,
                        std::map<std::string, LinkedBrush>* out) {
  out->clear();
  // The brushed row's relation rows, traced once for every target: read in
  // place from a raw posting list, else copied out by the checked trace
  // (which also reports every missing-index and range error).
  const int idx = from.lineage.FindInput(relation);
  const LineageIndex* bw =
      idx >= 0 ? &from.lineage.input(static_cast<size_t>(idx)).backward
               : nullptr;
  std::vector<rid_t> copy;
  const rid_t* bar = nullptr;
  size_t n = 0;
  if (bw != nullptr && bw->kind() == LineageIndex::Kind::kIndex &&
      out_rid < bw->size()) {
    const RidVec& list = bw->index().list(out_rid);
    bar = list.data();
    n = list.size();
  } else {
    SMOKE_RETURN_NOT_OK(BackwardRidsChecked(from.lineage, relation, {out_rid},
                                            /*dedup=*/false, &copy));
    bar = copy.data();
    n = copy.size();
  }
  // A strictly ascending list (a group-by's input order) holds no
  // duplicates and ends at its largest rid; any other is deduplicated into
  // a copy, in first-seen order.
  size_t i = 1;
  while (i < n && bar[i - 1] < bar[i]) ++i;
  rid_t max_rid = n == 0 ? 0 : bar[n - 1];
  if (i < n) {
    max_rid = *std::max_element(bar, bar + n);
    std::vector<bool> seen(static_cast<size_t>(max_rid) + 1, false);
    std::vector<rid_t> unique;
    for (size_t k = 0; k < n; ++k) {
      if (!seen[bar[k]]) {
        seen[bar[k]] = true;
        unique.push_back(bar[k]);
      }
    }
    copy = std::move(unique);
    bar = copy.data();
    n = copy.size();
  }
  for (const BrushTarget& t : targets) {
    LinkedBrush linked;
    SMOKE_RETURN_NOT_OK(
        CountLinked(*t.result, relation, bar, n, max_rid, &linked));
    (*out)[t.name] = std::move(linked);
  }
  return Status::OK();
}

Status PlanCrossfilter::Brush(const std::string& view, rid_t out_rid,
                              std::map<std::string, Linked>* out) const {
  const View* from = Find(view);
  if (from == nullptr) return Status::NotFound("view '" + view + "'");
  std::vector<BrushTarget> targets;
  for (const View& to : views_) {
    if (&to != from) targets.push_back({to.name, &to.result});
  }
  return BrushLinkedPlans(from->result, out_rid, relation_, targets, out);
}

}  // namespace smoke
