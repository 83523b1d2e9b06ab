// Physical operator implementations for the plan API. Each delegates to the
// instrumented kernel in src/engine/, then repackages that kernel's
// QueryLineage into per-input fragments for composition.
#include "plan/operator.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "engine/group_by.h"
#include "engine/hash_join.h"
#include "engine/select.h"
#include "engine/set_ops.h"
#include "engine/spja.h"
#include "lineage/compose.h"
#include "query/lineage_query.h"

namespace smoke {

namespace {

/// Moves the i-th input's indexes out of a kernel's QueryLineage. Missing
/// inputs (mode kNone, pruned relations) yield an empty fragment.
LineageFragment TakeFragment(QueryLineage* lineage, size_t i) {
  LineageFragment f;
  if (i < lineage->num_inputs()) {
    TableLineage& tl = lineage->mutable_input(i);
    f.backward = std::move(tl.backward);
    f.forward = std::move(tl.forward);
  }
  return f;
}

/// Partition-ignorant operators reject partial morsel views.
Status RequireFullRange(const std::vector<OperatorInput>& inputs,
                        const char* op_name) {
  for (const auto& in : inputs) {
    if (!in.IsFullRange()) {
      return Status::Unsupported(std::string(op_name) +
                                 " does not support partial morsel views");
    }
  }
  return Status::OK();
}

class SelectOperator : public Operator {
 public:
  explicit SelectOperator(const PlanNode& node) : node_(node) {}
  const char* name() const override { return "select"; }

  Status Execute(const std::vector<OperatorInput>& inputs,
                 const CaptureOptions& opts, OperatorResult* out) const override {
    SelectResult r;
    if (inputs[0].IsFullRange()) {
      r = SelectExec(*inputs[0].table, inputs[0].name, node_.predicates,
                     opts);
    } else {
      // Morsel-view execution: the caller partitions rows and merges the
      // per-view fragments (lineage/fragment_merge.h).
      const Morsel view = inputs[0].EffectiveView();
      r = SelectExecRange(*inputs[0].table, inputs[0].name, view.begin,
                          view.end, node_.predicates, opts);
    }
    out->output = std::move(r.output);
    out->output_cardinality = out->output.num_rows();
    out->fragments.push_back(TakeFragment(&r.lineage, 0));
    return Status::OK();
  }

 private:
  const PlanNode& node_;
};

class ProjectOperator : public Operator {
 public:
  explicit ProjectOperator(const PlanNode& node) : node_(node) {}
  const char* name() const override { return "project"; }

  Status Execute(const std::vector<OperatorInput>& inputs,
                 const CaptureOptions& opts, OperatorResult* out) const override {
    const Table& in = *inputs[0].table;
    Schema s;
    for (int c : node_.columns) {
      if (c < 0 || static_cast<size_t>(c) >= in.num_columns()) {
        return Status::InvalidArgument("projection column " +
                                       std::to_string(c) + " out of range");
      }
      s.AddField(in.schema().field(static_cast<size_t>(c)).name,
                 in.schema().field(static_cast<size_t>(c)).type);
    }
    Table output(s);
    if (inputs[0].IsFullRange()) {
      // Pure pipeline over the whole batch: identity lineage.
      for (size_t i = 0; i < node_.columns.size(); ++i) {
        output.mutable_column(i) =
            in.column(static_cast<size_t>(node_.columns[i]));
      }
      out->output = std::move(output);
      out->output_cardinality = out->output.num_rows();
      LineageFragment f;
      f.identity = true;
      out->fragments.push_back(std::move(f));
      return Status::OK();
    }
    // Morsel view: a 1:1 window [begin, end) — absolute input rids, local
    // output rids, so per-view fragments concatenate.
    const Morsel view = inputs[0].EffectiveView();
    for (size_t i = 0; i < node_.columns.size(); ++i) {
      Column& dst = output.mutable_column(i);
      const Column& src = in.column(static_cast<size_t>(node_.columns[i]));
      dst.Reserve(view.rows());
      for (rid_t r = view.begin; r < view.end; ++r) dst.AppendFrom(src, r);
    }
    out->output = std::move(output);
    out->output_cardinality = out->output.num_rows();
    LineageFragment f;
    if (opts.mode != CaptureMode::kNone && opts.capture_backward) {
      RidArray bw(view.rows());
      for (rid_t r = view.begin; r < view.end; ++r) bw[r - view.begin] = r;
      f.backward = LineageIndex::FromArray(std::move(bw));
    }
    if (opts.mode != CaptureMode::kNone && opts.capture_forward) {
      RidArray fw(in.num_rows(), kInvalidRid);
      for (rid_t r = view.begin; r < view.end; ++r) fw[r] = r - view.begin;
      f.forward = LineageIndex::FromArray(std::move(fw));
    }
    out->fragments.push_back(std::move(f));
    return Status::OK();
  }

 private:
  const PlanNode& node_;
};

class HashJoinOperator : public Operator {
 public:
  explicit HashJoinOperator(const PlanNode& node) : node_(node) {}
  const char* name() const override { return "hash_join"; }

  Status Execute(const std::vector<OperatorInput>& inputs,
                 const CaptureOptions& opts, OperatorResult* out) const override {
    SMOKE_RETURN_NOT_OK(RequireFullRange(inputs, name()));
    JoinResult r =
        HashJoinExec(*inputs[0].table, inputs[0].name, *inputs[1].table,
                     inputs[1].name, node_.join, opts);
    SMOKE_RETURN_NOT_OK(r.status);
    out->output = std::move(r.output);
    out->output_cardinality = r.output_cardinality;
    out->fragments.push_back(TakeFragment(&r.lineage, 0));
    out->fragments.push_back(TakeFragment(&r.lineage, 1));
    out->join_build = std::move(r.build_table);
    return Status::OK();
  }

 private:
  const PlanNode& node_;
};

class GroupByOperator : public Operator {
 public:
  explicit GroupByOperator(const PlanNode& node) : node_(node) {}
  const char* name() const override { return "group_by"; }

  Status Execute(const std::vector<OperatorInput>& inputs,
                 const CaptureOptions& opts, OperatorResult* out) const override {
    SMOKE_RETURN_NOT_OK(RequireFullRange(inputs, name()));
    const Table& in = *inputs[0].table;
    for (int k : node_.group_by.keys) {
      if (k < 0 || static_cast<size_t>(k) >= in.num_columns()) {
        return Status::InvalidArgument("group-by key column " +
                                       std::to_string(k) + " out of range");
      }
    }
    GroupByResult r = GroupByExec(in, inputs[0].name, node_.group_by, opts);
    if (opts.mode == CaptureMode::kDefer) {
      if (opts.defer_plan_finalize) {
        // Plan-level defer scheduling: keep the kernel result (with its
        // retained γht hash table) unfinalized; PlanResult::
        // FinalizeDeferred() completes capture at think-time.
        out->output = std::move(r.output);
        out->output_cardinality = out->output.num_rows();
        out->fragments.emplace_back();
        out->deferred_group_by = std::make_shared<GroupByResult>(std::move(r));
        return Status::OK();
      }
      // Default: finalize eagerly while the input batch is still alive.
      FinalizeDeferredGroupBy(&r, in, opts);
    }
    out->output = std::move(r.output);
    out->output_cardinality = out->output.num_rows();
    if (opts.retain_refresh_state) out->group_by = r.handle;
    out->fragments.push_back(TakeFragment(&r.lineage, 0));
    return Status::OK();
  }

 private:
  const PlanNode& node_;
};

class SetOpOperator : public Operator {
 public:
  explicit SetOpOperator(const PlanNode& node) : node_(node) {}
  const char* name() const override { return "set_op"; }

  Status Execute(const std::vector<OperatorInput>& inputs,
                 const CaptureOptions& opts, OperatorResult* out) const override {
    SMOKE_RETURN_NOT_OK(RequireFullRange(inputs, name()));
    const Table& a = *inputs[0].table;
    const Table& b = *inputs[1].table;
    const std::string& an = inputs[0].name;
    const std::string& bn = inputs[1].name;
    for (int c : node_.set_cols) {
      if (c < 0 || static_cast<size_t>(c) >= a.num_columns() ||
          static_cast<size_t>(c) >= b.num_columns()) {
        return Status::InvalidArgument("set-op column " + std::to_string(c) +
                                       " out of range");
      }
    }
    SetOpResult r;
    switch (node_.set_op) {
      case SetOpKind::kSetUnion:
        r = SetUnionExec(a, an, b, bn, node_.set_cols, opts);
        break;
      case SetOpKind::kBagUnion:
        r = BagUnionExec(a, an, b, bn, opts);
        break;
      case SetOpKind::kSetIntersect:
        r = SetIntersectExec(a, an, b, bn, node_.set_cols, opts);
        break;
      case SetOpKind::kBagIntersect:
        r = BagIntersectExec(a, an, b, bn, node_.set_cols, opts);
        break;
      case SetOpKind::kSetDifference:
        r = SetDifferenceExec(a, an, b, bn, node_.set_cols, opts);
        break;
    }
    out->output = std::move(r.output);
    out->output_cardinality = out->output.num_rows();
    out->fragments.push_back(TakeFragment(&r.lineage, 0));
    // Set difference has no B-side lineage (an output depends on the whole
    // inner relation); the fragment stays empty.
    out->fragments.push_back(TakeFragment(&r.lineage, 1));
    return Status::OK();
  }

 private:
  const PlanNode& node_;
};

class SpjaBlockOperator : public Operator {
 public:
  explicit SpjaBlockOperator(const PlanNode& node) : node_(node) {}
  const char* name() const override { return "spja_block"; }

  Status Execute(const std::vector<OperatorInput>& inputs,
                 const CaptureOptions& opts, OperatorResult* out) const override {
    SMOKE_RETURN_NOT_OK(RequireFullRange(inputs, name()));
    if (!node_.pushdown.empty() && opts.mode != CaptureMode::kInject) {
      return Status::InvalidArgument(
          "SPJA block push-downs require inject (Smoke-I) capture");
    }
    // Rebind the block's table pointers to the bound inputs so a plan can
    // be replayed against refreshed scans.
    SPJAQuery q = node_.spja;
    q.fact = inputs[0].table;
    for (size_t j = 0; j < q.dims.size(); ++j) {
      q.dims[j].table = inputs[1 + j].table;
    }
    SPJAResult r = internal::SPJAExecFused(
        q, opts, node_.pushdown.empty() ? nullptr : &node_.pushdown);
    out->output = std::move(r.output);
    out->output_cardinality = r.output_cardinality;
    for (size_t i = 0; i < inputs.size(); ++i) {
      out->fragments.push_back(TakeFragment(&r.lineage, i));
    }
    r.query = std::move(q);
    out->spja_artifacts = std::make_shared<SPJAArtifacts>(std::move(r));
    return Status::OK();
  }

 private:
  const PlanNode& node_;
};

/// Hash aggregation over a rid stream: the fused Trace → GroupBy. Keys are
/// int64 GroupExprs bound to the endpoint, aggregates fold through
/// AggLayout, and group slots are assigned in first-encounter order — the
/// slot order and arithmetic GroupByExec applies to the materialized rows.
class RidGroupTable {
 public:
  RidGroupTable(const std::vector<BoundGroupExpr>& keys,
                const AggLayout& layout)
      : keys_(keys), layout_(layout) {}

  size_t num_groups() const { return num_groups_; }
  const int64_t* key(size_t g) const {
    return key_vals_.data() + g * keys_.size();
  }
  const double* state(size_t g) const {
    return state_.data() + g * layout_.stride();
  }

  /// Folds the endpoint rows rids[0, n) into their groups. When `slots` is
  /// non-null it receives each row's group slot.
  void Fold(const rid_t* rids, size_t n, std::vector<uint32_t>* slots) {
    if (slots != nullptr) slots->resize(n);
    if (n == 0) return;
    if (keys_.empty()) {  // one group; the common drill-down aggregate
      bool created = false;
      FindOrAdd(nullptr, &created);
      if (created) layout_.Init(state_.data());
      if (slots != nullptr) std::fill(slots->begin(), slots->end(), 0u);
      layout_.UpdateBatch(state_.data(), nullptr, rids, n);
      return;
    }
    std::vector<uint32_t> local;
    std::vector<uint32_t>& slot_of = slots != nullptr ? *slots : local;
    slot_of.resize(n);
    std::vector<int64_t> k(keys_.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < keys_.size(); ++j) k[j] = keys_[j].Eval(rids[i]);
      bool created = false;
      slot_of[i] = FindOrAdd(k.data(), &created);
      if (created) layout_.Init(mutable_state(slot_of[i]));
    }
    layout_.UpdateBatch(state_.data(), slot_of.data(), rids, n);
  }

  /// Merges a partition's groups in slot order (GroupByExecParallel's
  /// partition-order merge); returns the partition slot -> merged slot map.
  std::vector<uint32_t> Merge(const RidGroupTable& part) {
    const size_t stride = layout_.stride();
    std::vector<uint32_t> to_global(part.num_groups());
    for (size_t ls = 0; ls < part.num_groups(); ++ls) {
      bool created = false;
      const uint32_t g = FindOrAdd(part.key(ls), &created);
      if (created) {
        std::copy(part.state(ls), part.state(ls) + stride, mutable_state(g));
      } else {
        layout_.Merge(mutable_state(g), part.state(ls));
      }
      to_global[ls] = g;
    }
    return to_global;
  }

 private:
  double* mutable_state(size_t g) {
    return state_.data() + g * layout_.stride();
  }

  /// Slot of the group keyed `k`, appended (state uninitialized) when new.
  uint32_t FindOrAdd(const int64_t* k, bool* created) {
    const uint32_t fresh = static_cast<uint32_t>(num_groups_);
    uint32_t g = fresh;
    if (keys_.empty()) {
      g = 0;
    } else if (keys_.size() == 1) {
      g = int_map_.FindOrInsert(k[0], fresh);
      if (g == IntKeyMap::kNotFound) g = fresh;
    } else {
      std::string bytes(reinterpret_cast<const char*>(k),
                        keys_.size() * sizeof(int64_t));
      g = multi_map_.emplace(std::move(bytes), fresh).first->second;
    }
    *created = g == fresh;
    if (*created) {
      if (!keys_.empty()) {
        key_vals_.insert(key_vals_.end(), k, k + keys_.size());
      }
      state_.resize(state_.size() + layout_.stride());
      ++num_groups_;
    }
    return g;
  }

  const std::vector<BoundGroupExpr>& keys_;
  const AggLayout& layout_;
  IntKeyMap int_map_{64};
  std::unordered_map<std::string, uint32_t> multi_map_;
  std::vector<int64_t> key_vals_;  // keys_.size() values per group
  std::vector<double> state_;      // layout_.stride() slots per group
  size_t num_groups_ = 0;
};

bool IsLogicMode(CaptureMode m) {
  return m == CaptureMode::kLogicRid || m == CaptureMode::kLogicTup ||
         m == CaptureMode::kLogicIdx;
}

/// The lineage query as a physical operator (paper §2.1: backward/forward
/// traces are secondary index scans; here they are ordinary plan nodes, so
/// consuming queries stack on top of them and capture their own lineage).
///
/// Output: the endpoint rows of the traced rids plus the kTraceRidColumn —
/// or, for a fused aggregate, the group-by of those rows computed straight
/// from the rid stream. Fragment: output rows ↔ child positions — for a
/// single-hop trace the child *is* the endpoint scan, so downstream lineage
/// composes straight to the base relation; for a chained hop
/// (seeds_from_child) the fragment records which child rows contributed to
/// each traced output, composing through the previous hop.
class TraceOperator : public Operator {
 public:
  explicit TraceOperator(const PlanNode& node) : node_(node) {}
  const char* name() const override { return "trace"; }

  Status Execute(const std::vector<OperatorInput>& inputs,
                 const CaptureOptions& opts, OperatorResult* out) const override {
    SMOKE_RETURN_NOT_OK(RequireFullRange(inputs, name()));
    const TraceSpec& s = node_.trace;
    if (s.aggregate && IsLogicMode(opts.mode)) {
      // The literal Trace → GroupBy chain is a multi-block plan.
      return Status::Unsupported(
          "logic capture modes require a single-block plan");
    }
    const QueryLineage& lin = *s.lineage;
    if (lin.FindInput(s.relation) < 0) {
      return Status::NotFound("relation '" + s.relation +
                              "' in trace source lineage");
    }
    const bool backward = s.direction == TraceDirection::kBackward;

    // For single-hop traces the child scan is the endpoint; chained hops
    // name their own endpoint (validated at plan build).
    const Table* endpoint =
        s.seeds_from_child ? s.endpoint : inputs[0].table;

    const bool capture = opts.mode != CaptureMode::kNone;
    const bool want_b = capture && opts.capture_backward;
    const bool want_f = capture && opts.capture_forward;

    // ---- stage fragments: own trace, fused hops, filters, aggregate ----
    //
    // Each stage (this node's own trace, then every fused hop, then the
    // pushed-down filters, then the fused group-by) contributes the same
    // lineage fragment the literal plan node would have, and the stages
    // compose in the executor's association order: backward left-nested
    // from the outermost stage inward, forward right-nested — so the
    // emitted fragment is bit-identical to what ComposePlanLineage builds
    // for the unfused chain. Intermediate endpoints are bounds-checked (the
    // literal chain materializes them) but never copied — that skipped copy
    // is the optimization.
    std::vector<rid_t> rids;
    std::vector<StageFrag> stages(1);
    if (s.seeds_from_child) {
      // Multi-hop: seed from the child trace's rid column; the hop's
      // fragment records which child rows reach each traced output.
      const Table& child = *inputs[0].table;
      int rid_col = TraceRidColumnOf(child);
      if (rid_col < 0) {
        return Status::InvalidArgument(
            "chained trace child carries no rid column");
      }
      const auto& seed_vals = child.column(static_cast<size_t>(rid_col)).ints();
      SMOKE_RETURN_NOT_OK(ProbeHop(
          lin, s.relation, s.direction, s.dedup, seed_vals.size(),
          [&seed_vals](size_t j) { return static_cast<rid_t>(seed_vals[j]); },
          want_b, want_f, &rids, &stages[0]));
    } else {
      if (s.skip_index != nullptr) {
        // Data-skipping physical choice: scan only the matching partition
        // of each seed (the partition code encodes the pushed-down
        // predicate).
        const PartitionedRidIndex& pidx = *s.skip_index;
        if (s.skip_code >= pidx.num_codes()) {
          return Status::InvalidArgument("skip partition code out of range");
        }
        for (rid_t oid : s.seeds) {
          if (oid >= pidx.num_outputs()) {
            return Status::InvalidArgument("output rid " +
                                           std::to_string(oid) +
                                           " out of range for skip index");
          }
          // Decode-on-demand: frozen (compressed) skip indexes stream the
          // matching partition without materializing it.
          pidx.ForEachInPartition(oid, s.skip_code,
                                  [&rids](rid_t r) { rids.push_back(r); });
        }
      } else {
        SMOKE_RETURN_NOT_OK(
            backward ? BackwardRidsChecked(lin, s.relation, s.seeds, s.dedup,
                                           &rids)
                     : ForwardRidsChecked(lin, s.relation, s.seeds, s.dedup,
                                          &rids));
      }
    }
    // Each stage's rids are validated against its endpoint as soon as they
    // exist: fragments and every later stage index by them. The literal
    // chain materializes each intermediate endpoint; keep its bounds check
    // (and error text).
    SMOKE_RETURN_NOT_OK(CheckEndpointRids(endpoint, rids));
    if (!s.seeds_from_child) {
      // Single hop: output row i is child row rids[i].
      if (want_b) stages[0].bw = LineageIndex::FromArray(RidArray(rids));
      if (want_f) stages[0].fw = InvertTraceRids(rids, endpoint->num_rows());
    }

    for (const TraceHopSpec& hop : s.fused_hops) {
      const std::vector<rid_t> seeds_in = std::move(rids);
      rids.clear();
      StageFrag sf;
      SMOKE_RETURN_NOT_OK(ProbeHop(
          *hop.lineage, hop.relation, hop.direction, hop.dedup,
          seeds_in.size(), [&seeds_in](size_t j) { return seeds_in[j]; },
          want_b, want_f, &rids, &sf));
      stages.push_back(std::move(sf));
      endpoint = hop.endpoint;
      SMOKE_RETURN_NOT_OK(CheckEndpointRids(endpoint, rids));
    }

    if (!s.filters.empty()) {
      // Evaluate against the endpoint rows the literal select would have
      // seen (the filters reference endpoint columns only — the rid
      // column is never a predicate target). Same fragment shape as the
      // selection kernel: backward = kept positions, forward = position
      // -> kept index or kInvalidRid.
      RidArray pos;
      PredicateList(*endpoint, s.filters)
          .SelectPositions(rids.data(), rids.size(), &pos);
      StageFrag sf;
      if (want_f) {
        RidArray ffw(rids.size(), kInvalidRid);
        for (size_t j = 0; j < pos.size(); ++j) {
          ffw[pos[j]] = static_cast<rid_t>(j);
        }
        sf.fw = LineageIndex::FromArray(std::move(ffw));
      }
      for (size_t j = 0; j < pos.size(); ++j) rids[j] = rids[pos[j]];
      rids.resize(pos.size());
      if (want_b) sf.bw = LineageIndex::FromArray(std::move(pos));
      stages.push_back(std::move(sf));
    }

    if (s.aggregate) {
      StageFrag sf;
      SMOKE_RETURN_NOT_OK(
          Aggregate(*endpoint, rids, opts, want_b, want_f, &out->output, &sf));
      stages.push_back(std::move(sf));
    } else {
      // Materialize the endpoint rows (the secondary index scan) with the
      // traced rid as the trailing column.
      Table output(TraceOutputSchema(endpoint->schema()));
      output.Reserve(rids.size());
      Column& rid_out = output.mutable_column(endpoint->num_columns());
      for (rid_t r : rids) {
        output.AppendRowFrom(*endpoint, r);
        rid_out.AppendInt(static_cast<int64_t>(r));
      }
      out->output = std::move(output);
    }
    out->output_cardinality = out->output.num_rows();

    // Executor association order: backward composes outermost-first
    // (CB(acc, frag) top-down), forward nests the deeper fragment as the
    // inner operand (CF(frag, acc)).
    StageFrag acc = std::move(stages.back());
    for (size_t k = stages.size() - 1; k-- > 0;) {
      if (want_b) acc.bw = ComposeBackward(acc.bw, stages[k].bw);
      if (want_f) acc.fw = ComposeForward(stages[k].fw, acc.fw);
    }
    LineageFragment frag;
    frag.backward = std::move(acc.bw);
    frag.forward = std::move(acc.fw);
    out->fragments.push_back(std::move(frag));
    return Status::OK();
  }

 private:
  struct StageFrag {
    LineageIndex bw, fw;
  };

  static Status CheckEndpointRids(const Table* endpoint,
                                  const std::vector<rid_t>& rids) {
    if (endpoint == nullptr) {
      return Status::InvalidArgument("trace endpoint table not available");
    }
    for (rid_t r : rids) {
      if (r >= endpoint->num_rows()) {
        return Status::InvalidArgument("traced rid " + std::to_string(r) +
                                       " out of range for endpoint");
      }
    }
    return Status::OK();
  }

  /// One drill-down hop over `relation` of `lin`: probes its index in
  /// `dir` with seeds seed_at(0..num_seeds) in order and appends the
  /// reached rids to `*rids` (deduplicated in first-encounter order when
  /// `dedup`). Under capture `frag` receives the hop's fragment: backward =
  /// output position -> seed positions, forward = seed position -> output
  /// positions.
  template <typename SeedAt>
  static Status ProbeHop(const QueryLineage& lin, const std::string& relation,
                         TraceDirection dir, bool dedup, size_t num_seeds,
                         SeedAt seed_at, bool want_b, bool want_f,
                         std::vector<rid_t>* rids, StageFrag* frag) {
    const int idx = lin.FindInput(relation);
    if (idx < 0) {
      return Status::NotFound("relation '" + relation +
                              "' in trace source lineage");
    }
    const TableLineage& tl = lin.input(static_cast<size_t>(idx));
    const bool backward = dir == TraceDirection::kBackward;
    const LineageIndex& index = backward ? tl.backward : tl.forward;
    if (index.empty()) {
      return Status::InvalidArgument(
          (backward ? std::string("backward") : std::string("forward")) +
          " lineage for '" + relation + "' was not captured");
    }
    const size_t universe =
        backward ? (tl.table != nullptr ? tl.table->num_rows() : 0)
                 : lin.output_cardinality();
    std::vector<uint32_t> pos(dedup ? universe : 0, UINT32_MAX);
    RidIndex bw, fw;
    if (want_f) fw.Resize(num_seeds);
    std::vector<rid_t> targets;
    for (size_t j = 0; j < num_seeds; ++j) {
      const rid_t f = seed_at(j);
      if (f >= index.size()) {
        return Status::InvalidArgument("chained trace seed rid " +
                                       std::to_string(f) + " out of range");
      }
      targets.clear();
      index.TraceInto(f, &targets);
      for (rid_t t : targets) {
        uint32_t p;
        if (dedup) {
          if (t >= universe) {
            return Status::InvalidArgument("traced rid " + std::to_string(t) +
                                           " out of range for endpoint");
          }
          if (pos[t] == UINT32_MAX) {
            pos[t] = static_cast<uint32_t>(rids->size());
            rids->push_back(t);
          }
          p = pos[t];
        } else {
          p = static_cast<uint32_t>(rids->size());
          rids->push_back(t);
        }
        if (want_b) {
          if (bw.size() <= p) bw.Resize(p + 1);
          bw.Append(p, static_cast<rid_t>(j));
        }
        if (want_f) fw.Append(j, p);
      }
    }
    if (want_b) {
      bw.Resize(rids->size());
      frag->bw = LineageIndex::FromIndex(std::move(bw));
    }
    if (want_f) frag->fw = LineageIndex::FromIndex(std::move(fw));
    return Status::OK();
  }

  /// The fused group-by over the (bounds-checked) endpoint rids: fills
  /// `output` with the keys and finalized aggregates and, under capture,
  /// `frag` with the group-by fragment over stream positions (backward:
  /// group -> positions, forward: position -> group) — the forms
  /// GroupByExec emits.
  Status Aggregate(const Table& endpoint, const std::vector<rid_t>& rids,
                   const CaptureOptions& opts, bool want_b, bool want_f,
                   Table* output, StageFrag* frag) const {
    const TraceSpec& s = node_.trace;
    std::vector<BoundGroupExpr> keys(s.group_keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!BoundGroupExpr::Bind(endpoint, s.group_keys[i], &keys[i])) {
        return Status::InvalidArgument(
            "group key '" + s.group_keys[i].name +
            "' binds to a missing or non-numeric column");
      }
    }
    const AggLayout layout(endpoint, s.aggs);
    RidGroupTable groups(keys, layout);

    // Under morsel parallelism the literal group-by folds one partition
    // per worker and merges them in partition order; fold the same
    // partitions here so floating-point sums round identically.
    size_t parts = 1;
    if (opts.WantsParallel()) {
      parts = static_cast<size_t>(opts.scheduler != nullptr
                                      ? opts.scheduler->num_threads()
                                      : std::max(1, opts.num_threads));
    }
    const size_t m = rids.size();
    const bool lineage = want_b || want_f;
    std::vector<uint32_t> slot_of;
    if (parts <= 1) {
      groups.Fold(rids.data(), m, lineage ? &slot_of : nullptr);
    } else {
      if (lineage) slot_of.resize(m);
      std::vector<uint32_t> local_slot;
      for (const Morsel& part : MakePartitions(m, parts)) {
        RidGroupTable local(keys, layout);
        local.Fold(rids.data() + part.begin, part.rows(), &local_slot);
        const std::vector<uint32_t> to_global = groups.Merge(local);
        if (!lineage) continue;
        for (size_t i = 0; i < part.rows(); ++i) {
          slot_of[part.begin + i] = to_global[local_slot[i]];
        }
      }
    }

    Schema schema;
    for (const GroupExpr& g : s.group_keys) {
      schema.AddField(g.name, DataType::kInt64);
    }
    for (size_t i = 0; i < layout.num_aggs(); ++i) {
      schema.AddField(layout.OutputField(i).name, layout.OutputField(i).type);
    }
    *output = Table(schema);
    const size_t ng = groups.num_groups();
    output->Reserve(ng);
    std::vector<Column*> agg_cols;
    for (size_t i = 0; i < layout.num_aggs(); ++i) {
      agg_cols.push_back(&output->mutable_column(keys.size() + i));
    }
    for (size_t g = 0; g < ng; ++g) {
      for (size_t k = 0; k < keys.size(); ++k) {
        output->mutable_column(k).AppendInt(groups.key(g)[k]);
      }
      layout.Finalize(groups.state(g), &agg_cols);
    }

    if (want_b) {
      std::vector<RidVec> lists(ng);
      for (size_t i = 0; i < m; ++i) {
        lists[slot_of[i]].PushBack(static_cast<rid_t>(i));
      }
      frag->bw = LineageIndex::FromIndex(RidIndex::FromLists(std::move(lists)));
    }
    if (want_f) frag->fw = LineageIndex::FromArray(std::move(slot_of));
    return Status::OK();
  }

  const PlanNode& node_;
};

/// Derived grouping keys as a pipelined operator: appends one computed
/// int64 column per GroupExpr (year/month/scale100/raw) after the child's
/// columns. 1:1 with the input, so its lineage is the identity — this is
/// how the consuming-query mini-language's derived keys become ordinary
/// group-by key columns in a compiled plan.
class DeriveOperator : public Operator {
 public:
  explicit DeriveOperator(const PlanNode& node) : node_(node) {}
  const char* name() const override { return "derive"; }

  Status Execute(const std::vector<OperatorInput>& inputs,
                 const CaptureOptions& opts, OperatorResult* out) const override {
    SMOKE_RETURN_NOT_OK(RequireFullRange(inputs, name()));
    (void)opts;
    const Table& in = *inputs[0].table;
    Schema schema = in.schema();
    for (const GroupExpr& g : node_.derives) {
      schema.AddField(g.name, DataType::kInt64);
    }
    Table output(schema);
    for (size_t c = 0; c < in.num_columns(); ++c) {
      output.mutable_column(c) = in.column(c);
    }
    const size_t n = in.num_rows();
    for (size_t k = 0; k < node_.derives.size(); ++k) {
      BoundGroupExpr b;
      if (!BoundGroupExpr::Bind(in, node_.derives[k], &b)) {
        return Status::InvalidArgument(
            "derive expression '" + node_.derives[k].name +
            "' binds to a missing or non-numeric column");
      }
      Column& dst = output.mutable_column(in.num_columns() + k);
      for (rid_t r = 0; r < n; ++r) dst.AppendInt(b.Eval(r));
    }
    out->output = std::move(output);
    out->output_cardinality = n;
    LineageFragment f;
    f.identity = true;
    out->fragments.push_back(std::move(f));
    return Status::OK();
  }

 private:
  const PlanNode& node_;
};

}  // namespace

std::unique_ptr<Operator> MakeOperator(const PlanNode& node) {
  switch (node.kind) {
    case PlanOpKind::kScan:
      return nullptr;  // scans are resolved by the executor
    case PlanOpKind::kSelect:
      return std::make_unique<SelectOperator>(node);
    case PlanOpKind::kProject:
      return std::make_unique<ProjectOperator>(node);
    case PlanOpKind::kHashJoin:
      return std::make_unique<HashJoinOperator>(node);
    case PlanOpKind::kGroupBy:
      return std::make_unique<GroupByOperator>(node);
    case PlanOpKind::kSetOp:
      return std::make_unique<SetOpOperator>(node);
    case PlanOpKind::kSpjaBlock:
      return std::make_unique<SpjaBlockOperator>(node);
    case PlanOpKind::kTrace:
      return std::make_unique<TraceOperator>(node);
    case PlanOpKind::kDerive:
      return std::make_unique<DeriveOperator>(node);
  }
  return nullptr;
}

}  // namespace smoke
