#include "core/smoke_engine.h"

#include "lineage/compose.h"
#include "query/lazy.h"
#include "query/lineage_query.h"
#include "shard/coordinator.h"

namespace smoke {

namespace {

/// Tracked bytes of a retained result: the composed indexes plus the
/// partitioned skip index — under skip push-down the latter *replaces* the
/// plain fact backward index and is where the dominant lineage lives.
size_t LineageBytes(const PlanResult& result) {
  return result.lineage.MemoryBytes() + result.skip_index.MemoryBytes();
}

/// Encodes a retained result's indexes (composed, and the skip index when
/// the block has one) under `codec`.
void EncodeLineage(PlanResult* result, LineageCodec codec) {
  EncodeQueryLineage(&result->lineage, codec);
  if (result->skip_index.num_codes() > 0) result->skip_index.Freeze(codec);
}

/// True when `result` still references `table`: through its lineage, or
/// through the SPJA block query its lazy rescan re-evaluates.
bool Borrows(const PlanResult& result, const Table* table) {
  if (result.query.fact == table) return true;
  for (const SPJADim& d : result.query.dims) {
    if (d.table == table) return true;
  }
  const QueryLineage& lin = result.lineage;
  for (size_t i = 0; i < lin.num_inputs(); ++i) {
    if (lin.input(i).table == table) return true;
  }
  return false;
}

/// True when backward traces of `relation` on `result` are answered by the
/// lazy rescan: the indexes were evicted under the lineage budget and the
/// root is an SPJA block over base-table scans with no dimensions and
/// fact-table group keys. (Pruned or push-down-replaced indexes
/// deliberately do NOT fall back — their capture semantics restrict lineage
/// on purpose, so a lazy answer would be silently wrong; they keep
/// returning the "not captured" error.)
bool AnswersLazily(const PlanResult& result, const std::string& relation) {
  return result.lineage.evicted() && result.lineage.FindInput(relation) >= 0 &&
         LazyRewriteAvailable(result.query);
}

/// Lb(out_rids, fact) by lazy rescan of the block's fact relation, seed by
/// seed.
Status LazyBackward(const PlanResult& result,
                    const std::vector<rid_t>& out_rids, bool dedup,
                    std::vector<rid_t>* rids) {
  std::vector<uint8_t> seen(dedup ? result.query.fact->num_rows() : 0, 0);
  rids->clear();
  for (rid_t oid : out_rids) {
    if (oid >= result.output.num_rows()) {
      return Status::InvalidArgument(
          "output rid " + std::to_string(oid) + " out of range [0, " +
          std::to_string(result.output.num_rows()) + ")");
    }
    for (rid_t r : LazyBackwardRids(result.query, result.output, oid)) {
      if (dedup) {
        if (seen[r]) continue;
        seen[r] = 1;
      }
      rids->push_back(r);
    }
  }
  return Status::OK();
}

}  // namespace

Status SmokeEngine::CreateTable(const std::string& name, Table table) {
  return catalog_.AddTable(name, std::move(table));
}

Status SmokeEngine::GetTable(const std::string& name,
                             const Table** out) const {
  return catalog_.GetTable(name, out);
}

Status SmokeEngine::ReplaceTable(const std::string& name, Table table) {
  const Table* existing = nullptr;
  SMOKE_RETURN_NOT_OK(catalog_.GetTable(name, &existing));
  if (const std::string borrower = BorrowerOf(existing); !borrower.empty()) {
    return Status::InvalidArgument(
        "table '" + name + "' is borrowed by retained result '" + borrower +
        "'; drop it (and any other dependents) before replacing the table, "
        "or serve versioned replacements through ServeCore");
  }
  SMOKE_RETURN_NOT_OK(catalog_.ReplaceTable(name, std::move(table)));
  // Re-slice a sharded table under its existing spec (the catalog replace
  // is pointer-stable, so the new rows are already visible through base()).
  if (auto it = sharded_.find(name); it != sharded_.end()) {
    const ShardingSpec spec = it->second->spec();
    auto st = std::make_unique<ShardedTable>();
    if (Status s = ShardedTable::Create(existing, spec, st.get()); !s.ok()) {
      // The new contents cannot carry the old spec (column gone or
      // retyped): drop the sharding rather than keep stale slices.
      sharded_.erase(it);
      return Status::InvalidArgument(
          "table '" + name + "' replaced, but its sharding was dropped: " +
          s.message());
    }
    it->second = std::move(st);
  }
  return Status::OK();
}

Status SmokeEngine::DropTable(const std::string& name) {
  const Table* existing = nullptr;
  SMOKE_RETURN_NOT_OK(catalog_.GetTable(name, &existing));
  if (const std::string borrower = BorrowerOf(existing); !borrower.empty()) {
    return Status::InvalidArgument(
        "table '" + name + "' is borrowed by retained result '" + borrower +
        "'; drop it (and any other dependents) before dropping the table");
  }
  SMOKE_RETURN_NOT_OK(catalog_.DropTable(name));
  sharded_.erase(name);
  return Status::OK();
}

Status SmokeEngine::ShardTable(const std::string& name,
                               const ShardingSpec& spec) {
  const Table* base = nullptr;
  SMOKE_RETURN_NOT_OK(catalog_.GetTable(name, &base));
  auto st = std::make_unique<ShardedTable>();
  SMOKE_RETURN_NOT_OK(ShardedTable::Create(base, spec, st.get()));
  sharded_[name] = std::move(st);
  return Status::OK();
}

Status SmokeEngine::UnshardTable(const std::string& name) {
  if (sharded_.erase(name) == 0) {
    return Status::NotFound("sharded table '" + name + "'");
  }
  return Status::OK();
}

Status SmokeEngine::AppendRows(const std::string& name, const Table& rows,
                               std::vector<RefreshStats>* stats) {
  Table* dst = nullptr;
  SMOKE_RETURN_NOT_OK(catalog_.GetMutableTable(name, &dst));
  if (sharded_.count(name) != 0) {
    return Status::FailedPrecondition(
        "table '" + name + "' is sharded; appending would desync the shard "
        "slices — unshard first, or re-shard after a bulk replace");
  }
  if (rows.num_columns() != dst->num_columns()) {
    return Status::InvalidArgument("AppendRows('" + name +
                                   "'): column count mismatch");
  }

  // Every borrower must be incrementally maintainable before any row lands:
  // refusal here is atomic (the table is untouched). Appends never dangle
  // retained rids — the hazard is retained results going stale — so, unlike
  // ReplaceTable, borrowing is allowed when the borrower can be maintained.
  std::vector<std::string> views;
  for (const auto& [qname, rp] : plans_) {
    if (!Borrows(rp->result, dst)) continue;
    if (rp->result.refresh == nullptr) {
      return Status::FailedPrecondition(
          "table '" + name + "' is borrowed by retained result '" + qname +
          "', which carries no refresh state (it executed sharded, or "
          "without retain_refresh_state) and cannot be maintained; drop it "
          "or re-execute it unsharded with refresh state retained");
    }
    if (rp->result.HasDeferred()) {
      return Status::FailedPrecondition(
          "table '" + name + "' is borrowed by retained plan '" + qname +
          "' with pending deferred capture; FinalizePlan it first");
    }
    views.push_back(qname);
  }

  for (size_t r = 0; r < rows.num_rows(); ++r) {
    dst->AppendRowFrom(rows, static_cast<rid_t>(r));
  }

  for (const std::string& qname : views) {
    RetainedPlan& rp = *plans_[qname];
    RefreshStats s;
    SMOKE_RETURN_NOT_OK(RefreshPlanAppend(&rp.result, &s));
    if (!s.incremental) {
      // Scoped rebuild fallback (dim-side append, non-refreshable shape).
      std::string reason = std::move(s.fallback_reason);
      SMOKE_RETURN_NOT_OK(RebuildRetainedPlan(&rp.result));
      if (rp.codec != LineageCodec::kRaw) EncodeLineage(&rp.result, rp.codec);
      s = RefreshStats{};
      s.table = name;
      s.delta_rows = rows.num_rows();
      s.fallback_reason = std::move(reason);
      s.output_rows_appended = rp.result.output.num_rows();
      // Rebuilt indexes are resident again, even if they had been evicted.
      tracker_.Register(qname, LineageBytes(rp.result), rp.codec);
    } else {
      tracker_.Update(qname, LineageBytes(rp.result), rp.codec);
    }
    s.target = qname;
    if (stats != nullptr) stats->push_back(std::move(s));
  }
  EnforceBudget();
  return Status::OK();
}

Status SmokeEngine::AdoptRetainedPlan(const std::string& query_name,
                                      PlanResult result, LineageCodec codec) {
  if (plans_.count(query_name) != 0) {
    return Status::AlreadyExists("query '" + query_name + "'");
  }
  if (result.HasDeferred()) {
    return Status::InvalidArgument(
        "cannot adopt a result with pending deferred capture");
  }
  auto retained = std::make_unique<RetainedPlan>();
  retained->result = std::move(result);
  retained->codec = codec;
  tracker_.Register(query_name, LineageBytes(retained->result), codec);
  plans_[query_name] = std::move(retained);
  EnforceBudget();
  return Status::OK();
}

std::string SmokeEngine::BorrowerOf(const Table* table) const {
  for (const auto& [name, rp] : plans_) {
    if (Borrows(rp->result, table)) return name;
  }
  return std::string();
}

Status SmokeEngine::Lookup(const std::string& query_name,
                           const RetainedPlan** out) const {
  auto it = plans_.find(query_name);
  if (it == plans_.end()) {
    return Status::NotFound("query '" + query_name + "'");
  }
  *out = it->second.get();
  return Status::OK();
}

Status SmokeEngine::ExecuteQuery(const std::string& query_name,
                                 const SPJAQuery& query, CaptureMode mode,
                                 const Workload* workload) {
  return ExecuteQuery(query_name, query, CaptureOptions::Mode(mode),
                      workload);
}

Status SmokeEngine::ExecuteQuery(const std::string& query_name,
                                 const SPJAQuery& query,
                                 const CaptureOptions& options,
                                 const Workload* workload) {
  // An SPJA query is the canonical plan with one SpjaBlock node (paper
  // Section 3.3): the workload's push-downs attach to the block, and the
  // plan retains like any other.
  Workload pruning;
  if (workload != nullptr) pruning = *workload;
  PlanBuilder builder;
  const int root = builder.SpjaBlock(query, std::move(pruning.pushdown));
  pruning.pushdown = SPJAPushdown();
  LogicalPlan plan;
  SMOKE_RETURN_NOT_OK(builder.Build(root, &plan));
  return ExecutePlan(query_name, plan, options,
                     workload != nullptr ? &pruning : nullptr);
}

Status SmokeEngine::ExecutePlan(const std::string& query_name,
                                const LogicalPlan& plan, CaptureMode mode,
                                const Workload* workload) {
  return ExecutePlan(query_name, plan, CaptureOptions::Mode(mode), workload);
}

Status SmokeEngine::ExecutePlan(const std::string& query_name,
                                const LogicalPlan& plan,
                                const CaptureOptions& options,
                                const Workload* workload) {
  if (plans_.count(query_name) != 0) {
    return Status::AlreadyExists("query '" + query_name + "'");
  }
  if (options.mode == CaptureMode::kPhysMem ||
      options.mode == CaptureMode::kPhysBdb) {
    return Status::Unsupported(
        "physical baselines are exercised per-operator, not via the engine "
        "facade");
  }

  CaptureOptions opts = options;
  if (workload != nullptr) {
    if (!workload->pushdown.empty()) {
      return Status::InvalidArgument(
          "workload push-downs do not apply to plan queries; attach them to "
          "the plan's SpjaBlock node instead");
    }
    opts.only_relations = workload->traced_relations;
    opts.capture_backward = workload->needs_backward;
    opts.capture_forward = workload->needs_forward;
  }

  auto retained = std::make_unique<RetainedPlan>();
  if (sharded_.empty()) {
    SMOKE_RETURN_NOT_OK(smoke::ExecutePlan(plan, opts, &retained->result));
  } else {
    // Route through the sharded coordinator; plans that scan no sharded
    // table fall through to the unsharded executor inside.
    ShardResolver resolver;
    for (const auto& [tname, st] : sharded_) resolver[st->base()] = st.get();
    SMOKE_RETURN_NOT_OK(
        ExecuteShardedPlan(plan, resolver, opts, &retained->result));
  }
  Retain(query_name, std::move(retained), opts);
  return Status::OK();
}

Status SmokeEngine::FinalizePlan(const std::string& query_name) {
  auto it = plans_.find(query_name);
  if (it == plans_.end()) {
    return Status::NotFound("query '" + query_name + "'");
  }
  RetainedPlan& rp = *it->second;
  const bool was_deferred = rp.result.HasDeferred();
  SMOKE_RETURN_NOT_OK(rp.result.FinalizeDeferred());
  if (was_deferred) {
    // Capture finalize is the store's encode point: the freshly composed
    // indexes are re-encoded under the retention codec and accounted.
    if (rp.codec != LineageCodec::kRaw) EncodeLineage(&rp.result, rp.codec);
    tracker_.Update(query_name, LineageBytes(rp.result), rp.codec);
    EnforceBudget();
  }
  return Status::OK();
}

Status SmokeEngine::GetResult(const std::string& query_name,
                              const Table** out) const {
  const RetainedPlan* rp = nullptr;
  SMOKE_RETURN_NOT_OK(Lookup(query_name, &rp));
  *out = &rp->result.output;
  return Status::OK();
}

Status SmokeEngine::GetResultObject(const std::string& query_name,
                                    const SPJAResult** out) const {
  const RetainedPlan* rp = nullptr;
  SMOKE_RETURN_NOT_OK(Lookup(query_name, &rp));
  *out = &rp->result;
  return Status::OK();
}

Status SmokeEngine::GetPlanResult(const std::string& query_name,
                                  const PlanResult** out) const {
  const RetainedPlan* rp = nullptr;
  SMOKE_RETURN_NOT_OK(Lookup(query_name, &rp));
  *out = &rp->result;
  return Status::OK();
}

// ---- lineage queries: typed handles ----

namespace {

/// Splits an executed trace plan into the typed handle: the trailing
/// kTraceRidColumn becomes `rids`, the remaining columns become `rows`, and
/// the PlanResult itself is kept for chaining.
Status SplitTraceOutput(PlanResult&& pr, TraceResult* out) {
  SMOKE_RETURN_NOT_OK(SplitTraceRows(pr.output, &out->rids, &out->rows));
  out->plan = std::move(pr);
  return Status::OK();
}

}  // namespace

TraceSource SmokeEngine::SourceOf(const std::string& query_name,
                                  const RetainedPlan& rp) const {
  TraceSource src = TraceSource::FromPlan(rp.result, query_name);
  // Feed the store-level statistics to the trace cost model
  // (optimizer/cost.h) before bumping the LRU clock.
  LineageMemoryTracker::Entry entry;
  if (tracker_.Lookup(query_name, &entry)) {
    src.stats.valid = true;
    src.stats.store_bytes = entry.bytes;
    src.stats.codec = entry.codec;
    src.stats.evicted = entry.evicted;
  }
  tracker_.Touch(query_name);
  return src;
}

Status SmokeEngine::MakeTraceSource(const std::string& query_name,
                                    TraceSource* out) const {
  const RetainedPlan* rp = nullptr;
  SMOKE_RETURN_NOT_OK(Lookup(query_name, &rp));
  *out = SourceOf(query_name, *rp);
  return Status::OK();
}

Status SmokeEngine::TraceBackward(const std::string& query_name,
                                  const std::string& relation,
                                  const std::vector<rid_t>& out_rids,
                                  TraceResult* out, bool dedup) const {
  const RetainedPlan* rp = nullptr;
  SMOKE_RETURN_NOT_OK(Lookup(query_name, &rp));
  const PlanResult& result = rp->result;
  // Evicted-index fallback for multi-seed traces: the compiled lazy plan
  // handles exactly one seed, so loop the lazy rescan per seed (the same
  // path the string-keyed Backward takes) and synthesize the 1:1 lineage
  // the Trace operator would have produced — the handle stays chainable.
  if (out_rids.size() != 1 && AnswersLazily(result, relation)) {
    tracker_.Touch(query_name);
    std::vector<rid_t> rids;
    SMOKE_RETURN_NOT_OK(LazyBackward(result, out_rids, dedup, &rids));
    const Table* fact = result.query.fact;
    SMOKE_RETURN_NOT_OK(MaterializeRowsChecked(*fact, rids, &out->rows));
    out->rids = rids;
    PlanResult pr;
    pr.output = out->rows;
    pr.output_cardinality = rids.size();
    TableLineage& tl = pr.lineage.AddInput(relation, fact);
    tl.backward = LineageIndex::FromArray(RidArray(rids));
    tl.forward = InvertTraceRids(rids, fact->num_rows());
    pr.lineage.set_output_cardinality(rids.size());
    out->plan = std::move(pr);
    return Status::OK();
  }
  LineageQuery q;
  SMOKE_RETURN_NOT_OK(
      TraceBuilder::Backward(SourceOf(query_name, *rp), relation, out_rids)
          .Dedup(dedup)
          .Compile(&q));
  PlanResult pr;
  SMOKE_RETURN_NOT_OK(q.Execute(CaptureOptions::Inject(), &pr));
  if (q.strategy() == TraceStrategy::kLazy) {
    // Lazy plans (the evicted-index fallback) scan the relation directly
    // and carry no rid column; the traced rids are the trace plan's own
    // composed 1:1 backward lineage from its selection.
    int idx = pr.lineage.FindInput(relation);
    if (idx < 0) {
      return Status::InvalidArgument("lazy trace captured no lineage for '" +
                                     relation + "'");
    }
    const LineageIndex& bw = pr.lineage.input(static_cast<size_t>(idx)).backward;
    if (!bw.IsOneToOne()) {
      return Status::InvalidArgument("lazy trace lineage is not 1:1");
    }
    const size_t n = pr.output.num_rows();
    out->rids.clear();
    out->rids.reserve(n);
    for (rid_t r = 0; r < n; ++r) out->rids.push_back(bw.ValueAt(r));
    out->rows = pr.output;
    out->plan = std::move(pr);
    return Status::OK();
  }
  return SplitTraceOutput(std::move(pr), out);
}

Status SmokeEngine::TraceForward(const std::string& query_name,
                                 const std::string& relation,
                                 const std::vector<rid_t>& in_rids,
                                 TraceResult* out) const {
  TraceSource src;
  SMOKE_RETURN_NOT_OK(MakeTraceSource(query_name, &src));
  PlanResult pr;
  SMOKE_RETURN_NOT_OK(TraceBuilder::Forward(std::move(src), relation, in_rids)
                          .Execute(CaptureOptions::Inject(), &pr));
  return SplitTraceOutput(std::move(pr), out);
}

Status SmokeEngine::ExecuteTraceQuery(const std::string& result_name,
                                      const TraceBuilder& builder,
                                      const CaptureOptions& opts) {
  if (plans_.count(result_name) != 0) {
    return Status::AlreadyExists("result '" + result_name + "'");
  }
  auto retained = std::make_unique<RetainedPlan>();
  SMOKE_RETURN_NOT_OK(builder.Execute(opts, &retained->result));
  Retain(result_name, std::move(retained), opts);
  return Status::OK();
}

// ---- lineage queries: rid lists ----

Status SmokeEngine::Backward(const std::string& query_name,
                             const std::string& relation,
                             const std::vector<rid_t>& out_rids,
                             std::vector<rid_t>* rids, bool dedup) const {
  const RetainedPlan* rp = nullptr;
  SMOKE_RETURN_NOT_OK(Lookup(query_name, &rp));
  tracker_.Touch(query_name);
  // Evicted under the lineage budget: answer by lazy rescan.
  if (AnswersLazily(rp->result, relation)) {
    return LazyBackward(rp->result, out_rids, dedup, rids);
  }
  return BackwardRidsChecked(rp->result.lineage, relation, out_rids, dedup,
                             rids);
}

Status SmokeEngine::DropResult(const std::string& query_name) {
  const RetainedPlan* rp = nullptr;
  SMOKE_RETURN_NOT_OK(Lookup(query_name, &rp));
  // A retained forward trace (or chained hop) borrows the traced query's
  // output rows through its lineage; dropping the query under it would
  // dangle those pointers — same hazard DropTable guards against.
  if (const std::string borrower = BorrowerOf(&rp->result.output);
      !borrower.empty()) {
    return Status::InvalidArgument("result '" + query_name +
                                   "' is borrowed by retained result '" +
                                   borrower + "'s lineage; drop '" + borrower +
                                   "' first");
  }
  plans_.erase(query_name);
  tracker_.Release(query_name);
  return Status::OK();
}

std::vector<std::string> SmokeEngine::QueryNames() const {
  std::vector<std::string> names;
  for (const auto& [k, v] : plans_) names.push_back(k);
  return names;
}

// ---- lineage store: accounting, budget enforcement, eviction ----

LineageStoreStats SmokeEngine::LineageMemoryStats() const {
  return tracker_.Stats();
}

void SmokeEngine::SetLineageBudget(size_t bytes) {
  tracker_.SetBudget(bytes);
  EnforceBudget();
}

void SmokeEngine::Retain(const std::string& query_name,
                         std::unique_ptr<RetainedPlan> retained,
                         const CaptureOptions& opts) {
  PlanResult& result = retained->result;
  retained->codec = opts.lineage_codec;
  // Deferred plans have no composed lineage yet; FinalizePlan encodes and
  // re-accounts at think-time.
  if (!result.HasDeferred() && opts.lineage_codec != LineageCodec::kRaw) {
    EncodeLineage(&result, opts.lineage_codec);
  }
  // Plans retained with refresh state are analyzed eagerly (after the
  // store encode, so the watermarks see the final indexes): AppendRows
  // and the serving layer then make refresh-vs-rebuild decisions without
  // re-walking the plan, and refreshable() is meaningful immediately.
  if (result.refresh != nullptr && !result.HasDeferred()) {
    AnalyzeRefreshability(&result).IgnoreError();
  }
  tracker_.Register(query_name, LineageBytes(result), opts.lineage_codec);
  plans_[query_name] = std::move(retained);
  EnforceBudget();
}

void SmokeEngine::EnforceBudget() {
  const size_t budget = tracker_.budget();
  if (budget == 0) return;
  // Stage 1: re-encode the coldest indexes under the adaptive codec — the
  // cheap recovery that keeps indexed traces working.
  while (tracker_.total_bytes() > budget) {
    std::string victim;
    if (!tracker_.Coldest(
            [](const std::string&, const LineageMemoryTracker::Entry& e) {
              return !e.evicted && e.codec != LineageCodec::kAdaptive;
            },
            &victim)) {
      break;
    }
    RetainedPlan& rp = *plans_.at(victim);
    rp.codec = LineageCodec::kAdaptive;
    if (!rp.result.HasDeferred()) {
      EncodeLineage(&rp.result, LineageCodec::kAdaptive);
    }
    tracker_.Update(victim, LineageBytes(rp.result), rp.codec);
  }
  // Stage 2: evict the coldest results whose traces can fall back to the
  // lazy rescan (SPJA block roots over base-table scans, no dimensions,
  // fact-table group keys). Others are never evicted (the budget is
  // best-effort for them — dropping their indexes would lose lineage, not
  // degrade it).
  while (tracker_.total_bytes() > budget) {
    std::string victim;
    if (!tracker_.Coldest(
            [this](const std::string& name,
                   const LineageMemoryTracker::Entry& e) {
              return !e.evicted &&
                     LazyRewriteAvailable(plans_.at(name)->result.query);
            },
            &victim)) {
      break;
    }
    PlanResult& result = plans_.at(victim)->result;
    EvictQueryLineage(&result.lineage);
    // The dictionary stays (it is query metadata, not lineage), but
    // strategy resolution checks the skip *index* presence, so kAuto falls
    // through to the lazy rescan rather than probing the dropped
    // partitions.
    result.skip_index = PartitionedRidIndex();
    tracker_.MarkEvicted(victim, LineageBytes(result));
  }
}

}  // namespace smoke
