#include "query/trace_builder.h"

#include <utility>

#include "optimizer/cost.h"
#include "optimizer/optimizer.h"
#include "optimizer/schema_infer.h"
#include "query/lazy.h"

namespace smoke {

const char* TraceStrategyName(TraceStrategy s) {
  switch (s) {
    case TraceStrategy::kAuto:     return "auto";
    case TraceStrategy::kIndexed:  return "indexed";
    case TraceStrategy::kLazy:     return "lazy";
    case TraceStrategy::kSkipping: return "skipping";
    case TraceStrategy::kCube:     return "cube";
  }
  return "?";
}

Status SplitTraceRows(const Table& output, std::vector<rid_t>* rids,
                      Table* rows) {
  int rid_col = TraceRidColumnOf(output);
  if (rid_col < 0) {
    return Status::InvalidArgument("trace plan output carries no rid column");
  }
  const auto& rid_vals = output.column(static_cast<size_t>(rid_col)).ints();
  rids->assign(rid_vals.begin(), rid_vals.end());
  Schema schema;
  for (size_t c = 0; c < output.num_columns(); ++c) {
    if (static_cast<int>(c) == rid_col) continue;
    schema.AddField(output.schema().field(c).name,
                    output.schema().field(c).type);
  }
  Table stripped(schema);
  size_t dst = 0;
  for (size_t c = 0; c < output.num_columns(); ++c) {
    if (static_cast<int>(c) == rid_col) continue;
    stripped.mutable_column(dst++) = output.column(c);
  }
  *rows = std::move(stripped);
  return Status::OK();
}

Status LineageQuery::Execute(const CaptureOptions& opts,
                             PlanResult* out) const {
  if (plan_.root() < 0) {
    return Status::InvalidArgument("lineage query was not compiled");
  }
  // Compile already validated the plan and optimized it (or deliberately
  // not, via TraceBuilder::Optimize(false)); Execute adds no entry work.
  CaptureOptions run_opts = opts;
  run_opts.optimize = false;
  SMOKE_RETURN_NOT_OK(internal::ExecuteValidatedPlan(plan_, run_opts, out));
  out->explain = explain_;
  // The result's lineage borrows whatever the plan scans; keep compile-time
  // materializations (the cube lookup table) alive with the result, not
  // with this (possibly temporary) compiled query.
  if (owned_table_ != nullptr) out->owned_tables.push_back(owned_table_);
  return Status::OK();
}

TraceBuilder TraceBuilder::Backward(TraceSource src, std::string relation,
                                    std::vector<rid_t> out_rids) {
  TraceBuilder b;
  b.src_ = std::move(src);
  b.relation_ = std::move(relation);
  b.dir_ = TraceDirection::kBackward;
  b.seeds_ = std::move(out_rids);
  b.dedup_ = false;  // witness alignment: duplicates kept
  return b;
}

TraceBuilder TraceBuilder::Forward(TraceSource src, std::string relation,
                                   std::vector<rid_t> in_rids) {
  TraceBuilder b;
  b.src_ = std::move(src);
  b.relation_ = std::move(relation);
  b.dir_ = TraceDirection::kForward;
  b.seeds_ = std::move(in_rids);
  b.dedup_ = true;  // forward lineage is set-valued
  return b;
}

TraceBuilder& TraceBuilder::ThenForward(TraceSource next) {
  hops_.push_back(std::move(next));
  return *this;
}

TraceBuilder& TraceBuilder::Filter(Predicate p) {
  filters_.push_back(std::move(p));
  return *this;
}

TraceBuilder& TraceBuilder::GroupBy(GroupExpr g) {
  groups_.push_back(std::move(g));
  return *this;
}

TraceBuilder& TraceBuilder::Agg(AggSpec a) {
  aggs_.push_back(std::move(a));
  return *this;
}

TraceBuilder& TraceBuilder::Consuming(const ConsumingSpec& spec) {
  filters_.insert(filters_.end(), spec.filters.begin(), spec.filters.end());
  groups_.insert(groups_.end(), spec.group_by.begin(), spec.group_by.end());
  aggs_.insert(aggs_.end(), spec.aggs.begin(), spec.aggs.end());
  return *this;
}

TraceBuilder& TraceBuilder::Strategy(TraceStrategy s) {
  strategy_ = s;
  return *this;
}

TraceBuilder& TraceBuilder::Dedup(bool dedup) {
  dedup_ = dedup;
  return *this;
}

TraceBuilder& TraceBuilder::Optimize(bool on) {
  optimize_ = on;
  return *this;
}

Status TraceBuilder::ResolveStrategy(TraceStrategy* out, uint32_t* skip_code,
                                     std::string* detail) const {
  const bool chained = !hops_.empty();
  if (dir_ == TraceDirection::kForward || chained) {
    if (strategy_ != TraceStrategy::kAuto &&
        strategy_ != TraceStrategy::kIndexed) {
      return Status::InvalidArgument(
          "forward and multi-hop traces support only the indexed strategy");
    }
    *out = TraceStrategy::kIndexed;
    *detail = chained ? "multi-hop traces are indexed"
                      : "forward traces are indexed";
    return Status::OK();
  }
  switch (strategy_) {
    case TraceStrategy::kIndexed:
      *out = TraceStrategy::kIndexed;
      *detail = "requested explicitly";
      return Status::OK();
    case TraceStrategy::kLazy: {
      if (src_.query == nullptr || src_.output == nullptr) {
        return Status::InvalidArgument(
            "lazy strategy needs the source SPJA query and output");
      }
      if (seeds_.size() != 1) {
        return Status::InvalidArgument(
            "lazy strategy traces exactly one output rid");
      }
      if (src_.query->fact_name != relation_) {
        return Status::InvalidArgument(
            "lazy strategy traces the fact relation only");
      }
      for (const ColRef& c : src_.query->group_by) {
        if (c.table != ColRef::kFact) {
          return Status::InvalidArgument(
              "lazy rewrite requires fact-table group-by keys");
        }
      }
      if (seeds_[0] >= src_.output->num_rows()) {
        return Status::InvalidArgument("output rid out of range");
      }
      *out = TraceStrategy::kLazy;
      *detail = "requested explicitly";
      return Status::OK();
    }
    case TraceStrategy::kSkipping: {
      if (!ResolveSkipCode(src_, relation_, filters_, skip_code)) {
        return Status::InvalidArgument(
            "skipping strategy needs a partitioned backward index covering "
            "the traced relation, with its partition columns pinned by "
            "equality predicates");
      }
      *out = TraceStrategy::kSkipping;
      *detail = "requested explicitly";
      return Status::OK();
    }
    case TraceStrategy::kCube: {
      const SPJAResult* a = src_.artifacts;
      if (a == nullptr || !a->cube.enabled()) {
        return Status::InvalidArgument(
            "cube strategy needs group-by push-down artifacts");
      }
      if (!PushdownCoversRelation(src_, relation_)) {
        return Status::InvalidArgument(
            "cube strategy traces the fact relation only");
      }
      if (seeds_.size() != 1) {
        return Status::InvalidArgument(
            "cube strategy traces exactly one output rid");
      }
      if (!filters_.empty()) {
        return Status::InvalidArgument(
            "cube strategy cannot apply extra filters (sub-aggregates are "
            "already folded)");
      }
      const std::vector<int>& cube_cols = a->applied_pushdown.cube_cols;
      const std::vector<AggSpec>& cube_aggs = a->applied_pushdown.cube_aggs;
      if (groups_.empty() || groups_.size() != cube_cols.size()) {
        return Status::InvalidArgument(
            "cube strategy group expressions must match the cube columns");
      }
      for (size_t i = 0; i < groups_.size(); ++i) {
        if (groups_[i].col != cube_cols[i]) {
          return Status::InvalidArgument(
              "cube strategy group expressions must match the cube columns "
              "in order");
        }
        // Cube cells are keyed by the raw column values and are not
        // re-aggregated: a key that merges values (year, month) would emit
        // one unmerged row per cell.
        if (groups_[i].kind != GroupExpr::Kind::kRaw &&
            groups_[i].kind != GroupExpr::Kind::kScale100) {
          return Status::InvalidArgument(
              "cube strategy group expressions must be injective (raw or "
              "scale100)");
        }
      }
      if (aggs_.size() != cube_aggs.size()) {
        return Status::InvalidArgument(
            "cube strategy aggregates must match the cube aggregates");
      }
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (aggs_[i].op != cube_aggs[i].op ||
            aggs_[i].name != cube_aggs[i].name) {
          return Status::InvalidArgument(
              "cube strategy aggregates must match the cube aggregates in "
              "order");
        }
      }
      *out = TraceStrategy::kCube;
      *detail = "requested explicitly";
      return Status::OK();
    }
    case TraceStrategy::kAuto: {
      // Cost-based selection (optimizer/cost.h): price every candidate
      // against the capture artifacts, store statistics, and seed-set
      // cardinality, then take the cheapest transparent one.
      TraceCostReport report =
          CostTraceStrategies(src_, relation_, seeds_, filters_);
      *out = report.chosen;
      *skip_code = report.skip_code;
      *detail = report.Summary();
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown trace strategy");
}

Status TraceBuilder::CompileCube(LineageQuery* out) const {
  const CubeIndex& cube = src_.artifacts->cube;
  rid_t oid = seeds_[0];
  if (oid >= cube.num_groups()) {
    return Status::InvalidArgument("output rid out of range for cube");
  }
  Table cells = cube.GroupTable(oid);

  // Reshape the cube cells to the consuming-query schema: derived int64
  // group keys (the cube keys run through each GroupExpr), then the
  // finalized aggregates as stored.
  Schema schema;
  for (const GroupExpr& g : groups_) schema.AddField(g.name, DataType::kInt64);
  const size_t nkeys = groups_.size();
  for (size_t i = nkeys; i < cells.num_columns(); ++i) {
    schema.AddField(cells.schema().field(i).name, cells.schema().field(i).type);
  }
  Table shaped(schema);
  const size_t rows = cells.num_rows();
  for (size_t i = 0; i < nkeys; ++i) {
    GroupExpr g = groups_[i];
    g.col = static_cast<int>(i);  // cube cell table: key i lives in column i
    BoundGroupExpr be;
    if (!BoundGroupExpr::Bind(cells, g, &be)) {
      return Status::InvalidArgument("cube key column type mismatch for '" +
                                     groups_[i].name + "'");
    }
    Column& dst = shaped.mutable_column(i);
    for (rid_t r = 0; r < rows; ++r) dst.AppendInt(be.Eval(r));
  }
  for (size_t i = nkeys; i < cells.num_columns(); ++i) {
    shaped.mutable_column(i) = cells.column(i);
  }

  LineageQuery q;
  q.strategy_ = TraceStrategy::kCube;
  q.owned_table_ = std::make_shared<Table>(std::move(shaped));
  PlanBuilder b;
  int scan = b.Scan(q.owned_table_.get(),
                    (src_.name.empty() ? std::string("trace") : src_.name) +
                        ".cube");
  std::vector<int> all_cols;
  for (size_t c = 0; c < q.owned_table_->num_columns(); ++c) {
    all_cols.push_back(static_cast<int>(c));
  }
  int root = b.Project(scan, std::move(all_cols));
  SMOKE_RETURN_NOT_OK(b.Build(root, &q.plan_));
  *out = std::move(q);
  return Status::OK();
}

Status TraceBuilder::Compile(LineageQuery* out) const {
  if (src_.lineage == nullptr) {
    return Status::InvalidArgument("trace source has no lineage");
  }
  TraceStrategy strat;
  uint32_t skip_code = 0;
  std::string strategy_detail;
  SMOKE_RETURN_NOT_OK(ResolveStrategy(&strat, &skip_code, &strategy_detail));
  if (strat == TraceStrategy::kCube) {
    SMOKE_RETURN_NOT_OK(CompileCube(out));
    out->explain_.strategy = TraceStrategyName(TraceStrategy::kCube);
    out->explain_.strategy_detail = std::move(strategy_detail);
    out->explain_.plan_text = out->plan_.ToString();
    return Status::OK();
  }

  int idx = src_.lineage->FindInput(relation_);
  if (idx < 0) {
    return Status::NotFound("relation '" + relation_ +
                            "' in trace source lineage");
  }
  const TableLineage& tl = src_.lineage->input(static_cast<size_t>(idx));

  PlanBuilder b;
  int cur = -1;
  size_t base_width = 0;  // columns preceding the derived group keys

  if (strat == TraceStrategy::kLazy) {
    // No trace at all: full selection scan with the lazily rewritten
    // backward predicates conjoined with the consuming filters.
    const Table* fact = src_.query->fact;
    std::vector<Predicate> preds =
        LazyBackwardPredicates(*src_.query, *src_.output, seeds_[0]);
    preds.insert(preds.end(), filters_.begin(), filters_.end());
    int scan = b.Scan(fact, relation_);
    cur = b.Select(scan, std::move(preds));
    base_width = fact->num_columns();
  } else if (dir_ == TraceDirection::kBackward) {
    if (tl.table == nullptr) {
      return Status::InvalidArgument("relation table not available");
    }
    int scan = b.Scan(tl.table, relation_);
    TraceSpec ts;
    ts.lineage = src_.lineage;
    ts.relation = relation_;
    ts.direction = TraceDirection::kBackward;
    ts.seeds = seeds_;
    ts.dedup = hops_.empty() ? dedup_ : true;
    if (strat == TraceStrategy::kSkipping) {
      ts.skip_index = &src_.artifacts->skip_index;
      ts.skip_code = skip_code;
    }
    cur = b.Trace(scan, std::move(ts));
    base_width = tl.table->num_columns() + 1;  // + kTraceRidColumn
    for (const TraceSource& hop : hops_) {
      if (hop.lineage == nullptr || hop.output == nullptr) {
        return Status::InvalidArgument(
            "multi-hop trace target needs lineage and output");
      }
      TraceSpec hs;
      hs.lineage = hop.lineage;
      hs.relation = relation_;
      hs.direction = TraceDirection::kForward;
      hs.seeds_from_child = true;
      hs.dedup = true;
      hs.endpoint = hop.output;
      cur = b.Trace(cur, std::move(hs));
      base_width = hop.output->num_columns() + 1;
    }
  } else {
    // Forward single hop: the endpoint is the source query's output.
    if (src_.output == nullptr) {
      return Status::InvalidArgument(
          "forward traces need the source output table");
    }
    int scan = b.Scan(src_.output,
                      (src_.name.empty() ? std::string("trace") : src_.name) +
                          ".out");
    TraceSpec ts;
    ts.lineage = src_.lineage;
    ts.relation = relation_;
    ts.direction = TraceDirection::kForward;
    ts.seeds = seeds_;
    ts.dedup = dedup_;
    cur = b.Trace(scan, std::move(ts));
    base_width = src_.output->num_columns() + 1;
  }

  if (strat != TraceStrategy::kLazy && !filters_.empty()) {
    cur = b.Select(cur, filters_);
  }
  if (!groups_.empty() || !aggs_.empty()) {
    GroupBySpec gs;
    if (!groups_.empty()) {
      cur = b.Derive(cur, groups_);
      for (size_t i = 0; i < groups_.size(); ++i) {
        gs.keys.push_back(static_cast<int>(base_width + i));
      }
    }
    gs.aggs = aggs_;
    cur = b.GroupBy(cur, std::move(gs));
  }

  LineageQuery q;
  q.strategy_ = strat;
  q.explain_.strategy = TraceStrategyName(strat);
  q.explain_.strategy_detail = std::move(strategy_detail);
  SMOKE_RETURN_NOT_OK(b.Build(cur, &q.plan_));
  if (optimize_) {
    LogicalPlan optimized;
    SMOKE_RETURN_NOT_OK(OptimizePlan(q.plan_, &optimized, &q.explain_));
    q.plan_ = std::move(optimized);
  } else {
    std::vector<Schema> schemas;
    SMOKE_RETURN_NOT_OK(InferPlanSchemas(q.plan_, &schemas));
    q.explain_.plan_text = q.plan_.ToString();
  }
  *out = std::move(q);
  return Status::OK();
}

Status TraceBuilder::Execute(const CaptureOptions& opts,
                             PlanResult* out) const {
  LineageQuery q;
  SMOKE_RETURN_NOT_OK(Compile(&q));
  return q.Execute(opts, out);
}

}  // namespace smoke
