// The paper's data-profiling FD checks (Section 6.5.2, Figure 15) as calls
// into the engine. Given an FD A → B over table T, each mode finds the
// distinct values a ∈ A that violate it and connects every violation to its
// tuples {t | t.A = a} — the violation-to-tuple bipartite graph:
//
//  - Smoke-CD:    one plan, Q_cd = Scan(T) → GroupBy(A, B) →
//                 GroupBy(A; COUNT(*) AS nb), under Inject with backward
//                 capture only. A violates at the rows with nb > 1, and each
//                 row's composed backward list to T is its tuple set. (No
//                 Select(nb > 1) node: the group count is reported too.)
//  - Smoke-UG:    UGuide's check in lineage terms — two distinct plans,
//                 GroupBy(A) capturing backward and GroupBy(B) capturing
//                 forward. One forward-count pass over all A groups (the
//                 paper's Listing 1): a violates when its backward rids
//                 reach more than one slot of B's forward array.
//  - Metanome-UG: a simulated baseline, not a system feature. The same UG
//                 check with Metanome's two measured costs: every attribute
//                 modeled as a string (a copy of A and B into an all-string
//                 table, inside the timed region) and lineage capture
//                 through one virtual LineageWriter::Emit per edge
//                 (CaptureMode::kPhysMem, run per operator — plans refuse
//                 the physical baseline modes). JVM overhead is not modeled.
//
// Shared by the Figure 15 bench and profiler_test, so the modes the figure
// times are the ones the test checks against a brute-force FD check.
#ifndef SMOKE_BENCH_FD_MODES_H_
#define SMOKE_BENCH_FD_MODES_H_

#include <string>
#include <utility>
#include <vector>

#include "baselines/phys_mem.h"
#include "engine/group_by.h"
#include "plan/executor.h"
#include "plan/plan.h"

namespace smoke {
namespace bench {

/// A functional dependency lhs_col -> rhs_col.
struct FdSpec {
  int lhs_col = -1;
  int rhs_col = -1;
  std::string name;
};

/// Violations of one FD plus the violation-to-tuple bipartite graph.
struct FdReport {
  /// Distinct violating LHS values (display strings, first-encounter order).
  std::vector<std::string> violating_values;
  /// bipartite.list(i) holds the rids of the tuples whose LHS value is
  /// violating_values[i] (grouped by RHS value under Smoke-CD).
  RidIndex bipartite;
  /// Total distinct LHS values checked.
  size_t num_groups = 0;
};

namespace fd_internal {

inline std::string Display(const Column& c, rid_t r) {
  return ValueToString(c.GetValue(r));
}

/// The lineage of `pr` on the relation it scanned as "T".
inline Status LineageOnT(const PlanResult& pr, const TableLineage** out) {
  const int in = pr.lineage.FindInput("T");
  if (in < 0) return Status::FailedPrecondition("no lineage captured on T");
  *out = &pr.lineage.input(static_cast<size_t>(in));
  return Status::OK();
}

/// Runs SELECT keys FROM T GROUP BY keys as one plan, topped by
/// GROUP BY keys[0] with COUNT(*) AS nb when `count_over_first` (Q_cd).
inline Status RunGroupBy(const Table& table, std::vector<int> keys,
                         bool count_over_first, const CaptureOptions& opts,
                         PlanResult* out) {
  PlanBuilder b;
  GroupBySpec spec;
  spec.keys = std::move(keys);
  int root = b.GroupBy(b.Scan(&table, "T"), std::move(spec));
  if (count_over_first) {
    GroupBySpec per_a;
    per_a.keys = {0};
    per_a.aggs = {AggSpec::Count("nb")};
    root = b.GroupBy(root, std::move(per_a));
  }
  LogicalPlan plan;
  SMOKE_RETURN_NOT_OK(b.Build(root, &plan));
  return ExecutePlan(plan, opts, out);
}

/// The paper's Listing 1 over every LHS group at once: group `g` violates
/// when the rids `rids_of(g, f)` visits reach more than one slot of the
/// RHS forward array `fw`. Only violating groups have their rids copied.
template <typename RidsOf, typename DisplayOf>
void ForwardCount(size_t num_groups, RidsOf&& rids_of, const LineageIndex& fw,
                  DisplayOf&& display, FdReport* out) {
  std::vector<RidVec> lists;
  for (rid_t g = 0; g < num_groups; ++g) {
    rid_t first = kInvalidRid;
    bool violated = false;
    rids_of(g, [&](rid_t r) {
      const rid_t slot = fw.ValueAt(r);
      if (first == kInvalidRid) first = slot;
      else if (slot != first) violated = true;
    });
    if (!violated) continue;
    out->violating_values.push_back(display(g));
    lists.emplace_back();
    rids_of(g, [&](rid_t r) { lists.back().PushBack(r); });
  }
  out->bipartite = RidIndex::FromLists(std::move(lists));
}

/// Inject capture of one direction: backward only, or else forward only.
inline CaptureOptions InjectOnly(bool backward) {
  CaptureOptions opts = CaptureOptions::Inject();
  opts.capture_backward = backward;
  opts.capture_forward = !backward;
  return opts;
}

}  // namespace fd_internal

/// Smoke-CD: Q_cd through the engine; its backward lineage is the graph.
inline Status ProfileCD(const Table& table, const FdSpec& fd, FdReport* out) {
  PlanResult pr;
  SMOKE_RETURN_NOT_OK(fd_internal::RunGroupBy(
      table, {fd.lhs_col, fd.rhs_col}, /*count_over_first=*/true,
      fd_internal::InjectOnly(/*backward=*/true), &pr));
  *out = FdReport{};
  out->num_groups = pr.output.num_rows();
  if (out->num_groups == 0) return Status::OK();
  const TableLineage* t = nullptr;
  SMOKE_RETURN_NOT_OK(fd_internal::LineageOnT(pr, &t));
  const Column& a = pr.output.column(0);
  const std::vector<int64_t>& nb = pr.output.column(1).ints();
  std::vector<RidVec> lists;
  for (rid_t g = 0; g < nb.size(); ++g) {
    if (nb[g] <= 1) continue;
    out->violating_values.push_back(fd_internal::Display(a, g));
    lists.emplace_back();
    t->backward.ForEachRelated(g, [&](rid_t r) { lists.back().PushBack(r); });
  }
  out->bipartite = RidIndex::FromLists(std::move(lists));
  return Status::OK();
}

/// Smoke-UG: distinct A (backward) and distinct B (forward), then one
/// forward-count pass over every A group.
inline Status ProfileUG(const Table& table, const FdSpec& fd, FdReport* out) {
  PlanResult qa, qb;
  SMOKE_RETURN_NOT_OK(fd_internal::RunGroupBy(
      table, {fd.lhs_col}, /*count_over_first=*/false,
      fd_internal::InjectOnly(/*backward=*/true), &qa));
  SMOKE_RETURN_NOT_OK(fd_internal::RunGroupBy(
      table, {fd.rhs_col}, /*count_over_first=*/false,
      fd_internal::InjectOnly(/*backward=*/false), &qb));
  *out = FdReport{};
  out->num_groups = qa.output.num_rows();
  if (out->num_groups == 0) return Status::OK();
  const TableLineage* ta = nullptr;
  const TableLineage* tb = nullptr;
  SMOKE_RETURN_NOT_OK(fd_internal::LineageOnT(qa, &ta));
  SMOKE_RETURN_NOT_OK(fd_internal::LineageOnT(qb, &tb));
  fd_internal::ForwardCount(
      out->num_groups,
      [&](rid_t g, auto&& f) { ta->backward.ForEachRelated(g, f); },
      tb->forward,
      [&](rid_t g) { return fd_internal::Display(qa.output.column(0), g); },
      out);
  return Status::OK();
}

/// Metanome-UG: UG over an all-string copy of A and B, with A's lineage
/// captured through virtual per-edge writes into a PhysMemWriter.
inline Status ProfileMetanomeUG(const Table& table, const FdSpec& fd,
                                FdReport* out) {
  for (int col : {fd.lhs_col, fd.rhs_col}) {
    if (col < 0 || static_cast<size_t>(col) >= table.num_columns()) {
      return Status::InvalidArgument("FD column " + std::to_string(col) +
                                     " out of range");
    }
  }
  // Metanome's data model: every attribute is a string.
  Schema s;
  s.AddField("a", DataType::kString);
  s.AddField("b", DataType::kString);
  Table strs(s);
  strs.Reserve(table.num_rows());
  const Column& lhs = table.column(static_cast<size_t>(fd.lhs_col));
  const Column& rhs = table.column(static_cast<size_t>(fd.rhs_col));
  for (rid_t r = 0; r < table.num_rows(); ++r) {
    strs.mutable_column(0).AppendString(fd_internal::Display(lhs, r));
    strs.mutable_column(1).AppendString(fd_internal::Display(rhs, r));
  }

  PhysMemWriter writer(/*backward=*/true, /*forward=*/false);
  CaptureOptions phys = CaptureOptions::Mode(CaptureMode::kPhysMem);
  phys.writer = &writer;
  GroupBySpec by_a, by_b;
  by_a.keys = {0};
  by_b.keys = {1};
  GroupByResult qa = GroupByExec(strs, "T", by_a, phys);
  GroupByResult qb = GroupByExec(strs, "T", by_b,
                                 fd_internal::InjectOnly(/*backward=*/false));

  *out = FdReport{};
  out->num_groups = qa.output.num_rows();
  if (out->num_groups == 0) return Status::OK();
  bool missing = false;
  fd_internal::ForwardCount(
      out->num_groups,
      [&](rid_t g, auto&& f) {
        const RidVec* edges = writer.Lookup(g);  // keyed subsystem fetch
        if (edges == nullptr) missing = true;
        else for (rid_t r : *edges) f(r);
      },
      qb.lineage.input(0).forward,
      [&](rid_t g) { return qa.output.column(0).strings()[g]; }, out);
  if (missing) return Status::FailedPrecondition("a group has no edges");
  return Status::OK();
}

/// One FD-check strategy, as Figure 15 prints it.
struct FdMode {
  const char* name;
  Status (*run)(const Table&, const FdSpec&, FdReport*);
};

/// In Figure 15's order.
inline const FdMode kFdModes[] = {{"Metanome-UG", ProfileMetanomeUG},
                                  {"Smoke-UG", ProfileUG},
                                  {"Smoke-CD", ProfileCD}};

}  // namespace bench
}  // namespace smoke

#endif  // SMOKE_BENCH_FD_MODES_H_
