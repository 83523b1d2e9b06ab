#include "apps/plan_crossfilter.h"

#include <algorithm>
#include <cstdint>
#include <functional>
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

/// Forward-counts `bar` (relation rows, largest `max_rid`) into target
/// `to`: every forward edge bumps the counter of the target row it
/// reaches, and a row joins `out->rids` when its counter first leaves zero
/// (first-seen order).
Status CountLinked(const PlanResult& to, const std::string& relation,
                   const std::vector<rid_t>& bar, rid_t max_rid,
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
  if (!bar.empty() && max_rid >= fw.size()) {
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
  for (rid_t b : bar) {
    fw.ForEachRelated(b, [&](rid_t t) {
      if (t >= num_rows) {
        bad = t;
      } else if (count[t]++ == 0) {
        rids[linked++] = t;
      }
    });
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
  // The brushed row's relation rows, traced once for every target.
  std::vector<rid_t> bar;
  SMOKE_RETURN_NOT_OK(BackwardRidsChecked(from.lineage, relation, {out_rid},
                                          /*dedup=*/false, &bar));
  const rid_t max_rid =
      bar.empty() ? 0 : *std::max_element(bar.begin(), bar.end());
  // A strictly ascending list (a group-by's input order) holds no
  // duplicates; any other is deduplicated in place, in first-seen order.
  if (std::adjacent_find(bar.begin(), bar.end(),
                         std::greater_equal<rid_t>()) != bar.end()) {
    std::vector<bool> seen(static_cast<size_t>(max_rid) + 1, false);
    size_t kept = 0;
    for (rid_t r : bar) {
      if (!seen[r]) {
        seen[r] = true;
        bar[kept++] = r;
      }
    }
    bar.resize(kept);
  }
  for (const BrushTarget& t : targets) {
    LinkedBrush linked;
    SMOKE_RETURN_NOT_OK(
        CountLinked(*t.result, relation, bar, max_rid, &linked));
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
