#include "refresh/refresh.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "common/macros.h"
#include "engine/group_expr.h"
#include "engine/hash_join.h"
#include "engine/select.h"
#include "lineage/fragment_merge.h"
#include "lineage/store/lineage_store.h"

namespace smoke {

namespace {

/// The cumulative output table of a path node: intermediates live in the
/// retained per-operator results, the root's output was moved into the
/// PlanResult itself.
Table* NodeOutput(PlanResult* pr, int id) {
  PlanRefreshState& rs = *pr->refresh;
  if (id == rs.plan.root()) return &pr->output;
  return &rs.results[static_cast<size_t>(id)].output;
}

/// One relation's witness column: for every delta row of the current
/// frontier, the one base rid of `scan` it derives from (backward lineage
/// is 1:1 per relation below a group-by root — each output row has exactly
/// one ancestor in each base relation).
struct Witness {
  int scan = -1;
  std::vector<rid_t> rids;
};

/// Probe-side match expansion of the witness columns through a join: each
/// delta probe row's witnesses are replicated once per build match.
void RemapWitnesses(const std::vector<size_t>& pick,
                    std::vector<Witness>* wits) {
  for (Witness& w : *wits) {
    std::vector<rid_t> next;
    next.reserve(pick.size());
    for (size_t i : pick) next.push_back(w.rids[i]);
    w.rids = std::move(next);
  }
}

/// Calls f(key, values, n) once per distinct key of `pairs`, in ascending
/// key order, with that key's values in their order in `pairs`.
template <typename F>
void ForEachKeyRun(std::vector<std::pair<rid_t, rid_t>>* pairs, F&& f) {
  std::stable_sort(pairs->begin(), pairs->end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<rid_t> values;
  for (size_t b = 0; b < pairs->size();) {
    const rid_t key = (*pairs)[b].first;
    values.clear();
    for (; b < pairs->size() && (*pairs)[b].first == key; ++b) {
      values.push_back((*pairs)[b].second);
    }
    f(key, values.data(), values.size());
  }
}

}  // namespace

Status AnalyzeRefreshability(PlanResult* pr) {
  if (pr == nullptr || pr->refresh == nullptr) {
    return Status::InvalidArgument(
        "no refresh state retained; execute the plan with "
        "CaptureOptions::retain_refresh_state");
  }
  PlanRefreshState& rs = *pr->refresh;
  rs.analyzed = true;
  rs.refreshable = false;
  rs.fallback_reason.clear();
  rs.cache.reset();
  // Rejections are analysis results, not errors: record the reason and
  // return OK so callers can fall back to rebuilds.
  auto reject = [&rs](std::string why) {
    rs.fallback_reason = std::move(why);
    return Status::OK();
  };

  if (pr->HasDeferred()) {
    return reject("deferred capture not finalized (call FinalizeDeferred)");
  }
  if (pr->lineage.evicted()) {
    return reject("lineage evicted by the store budget (lazy fallback only)");
  }
  const CaptureOptions& opts = rs.opts;
  if (opts.mode != CaptureMode::kInject) {
    return reject(std::string("capture mode ") + CaptureModeName(opts.mode) +
                  " (refresh replays capture inline and needs Smoke-I)");
  }
  if (!opts.capture_backward || !opts.capture_forward) {
    return reject("direction pruning active (refresh maintains both "
                  "lineage directions)");
  }
  if (!opts.only_relations.empty()) {
    return reject("relation pruning active (partial capture cannot be "
                  "extended consistently)");
  }

  const LogicalPlan& plan = rs.plan;
  const size_t n = plan.num_nodes();
  const int root = plan.root();

  std::vector<int> parents(n, 0);
  std::set<std::string> scan_labels;
  for (size_t id = 0; id < n; ++id) {
    if (!rs.reachable[id]) continue;
    const PlanNode& node = plan.node(static_cast<int>(id));
    for (int c : node.children) ++parents[static_cast<size_t>(c)];
    switch (node.kind) {
      case PlanOpKind::kScan:
        if (!scan_labels.insert(node.label).second) {
          return reject("duplicate scan label '" + node.label +
                        "' (delta attribution is ambiguous)");
        }
        break;
      case PlanOpKind::kSelect:
      case PlanOpKind::kProject:
      case PlanOpKind::kDerive:
        break;
      case PlanOpKind::kGroupBy:
        if (static_cast<int>(id) != root) {
          return reject("group-by below the plan root (patched aggregates "
                        "would invalidate downstream captures)");
        }
        break;
      case PlanOpKind::kHashJoin:
        if (plan.node(node.children[0]).kind != PlanOpKind::kScan) {
          return reject("join build side is not a base-table scan");
        }
        if (!node.join.materialize_output) {
          return reject("join output not materialized");
        }
        if (rs.results[id].join_build == nullptr) {
          return reject("no retained join build table");
        }
        break;
      default:
        return reject(std::string("plan contains a ") +
                      PlanOpKindName(node.kind) + " node");
    }
  }
  for (size_t id = 0; id < n; ++id) {
    if (rs.reachable[id] && parents[id] > 1) {
      return reject("shared subplan (node '" +
                    plan.node(static_cast<int>(id)).label +
                    "' feeds multiple parents)");
    }
  }
  if (plan.node(root).kind == PlanOpKind::kScan) {
    return reject("plan root is a bare scan");
  }
  if (plan.node(root).kind == PlanOpKind::kGroupBy &&
      rs.results[static_cast<size_t>(root)].group_by == nullptr) {
    return reject("no retained group-by hash handle");
  }

  // With every join build side a direct scan and all other operators unary,
  // the reachable plan is a chain: one probe-path leaf scan (the only
  // relation that can take incremental deltas) with operators stacked on
  // top. Walk it down from the root.
  auto cache = std::make_shared<RefreshPlanCache>();
  int id = root;
  while (plan.node(id).kind != PlanOpKind::kScan) {
    cache->path.push_back(id);
    const PlanNode& node = plan.node(id);
    id = node.kind == PlanOpKind::kHashJoin ? node.children[1]
                                            : node.children[0];
  }
  cache->delta_scan = id;
  std::reverse(cache->path.begin(), cache->path.end());

  // Watermarks come from the composed forward indexes (defined over exactly
  // the rows capture saw), so rows appended after retention but before this
  // analysis still count as pending deltas.
  for (size_t sid = 0; sid < n; ++sid) {
    const PlanNode& node = plan.node(static_cast<int>(sid));
    if (!rs.reachable[sid] || node.kind != PlanOpKind::kScan) continue;
    const int input = pr->lineage.FindInput(node.label);
    if (input < 0) {
      return reject("no composed lineage for relation '" + node.label + "'");
    }
    const TableLineage& tl = pr->lineage.input(static_cast<size_t>(input));
    if (tl.backward.empty() || tl.forward.empty()) {
      return reject("missing composed index for relation '" + node.label +
                    "'");
    }
    cache->scan_rows[static_cast<int>(sid)] = tl.forward.size();
  }

  rs.cache = std::move(cache);
  rs.refreshable = true;
  return Status::OK();
}

Status RefreshPlanAppend(PlanResult* pr, RefreshStats* stats) {
  RefreshStats local;
  if (stats == nullptr) stats = &local;
  *stats = RefreshStats{};
  if (pr == nullptr || pr->refresh == nullptr) {
    return Status::InvalidArgument(
        "no refresh state retained; execute the plan with "
        "CaptureOptions::retain_refresh_state");
  }
  PlanRefreshState& rs = *pr->refresh;
  if (!rs.analyzed) SMOKE_RETURN_NOT_OK(AnalyzeRefreshability(pr));
  if (!rs.refreshable) {
    stats->fallback_reason = rs.fallback_reason;
    return Status::OK();
  }
  RefreshPlanCache& cache = *rs.cache;
  const LogicalPlan& plan = rs.plan;
  const LineageCodec codec = rs.opts.lineage_codec;

  // ---- delta detection against the watermarks ----
  for (const auto& [sid, rows] : cache.scan_rows) {
    if (sid == cache.delta_scan) continue;
    const PlanNode& scan = plan.node(sid);
    if (scan.table->num_rows() != rows) {
      stats->table = scan.label;
      stats->fallback_reason =
          "dim-side append: relation '" + scan.label +
          "' feeds a join build side; the retained build map only folds "
          "probe-side deltas — scoped rebuild required";
      return Status::OK();
    }
  }
  const Table* base = plan.node(cache.delta_scan).table;
  const size_t old_n = cache.scan_rows[cache.delta_scan];
  const size_t new_n = base->num_rows();
  stats->table = plan.node(cache.delta_scan).label;
  SMOKE_CHECK(new_n >= old_n);
  if (new_n == old_n) {  // nothing pending: the view is already live
    stats->incremental = true;
    return Status::OK();
  }
  stats->delta_rows = new_n - old_n;

  // ---- the delta pass: replay capture over [old_n, new_n) only ----
  std::vector<Witness> wits(1);
  wits[0].scan = cache.delta_scan;
  wits[0].rids.reserve(new_n - old_n);
  for (size_t r = old_n; r < new_n; ++r) {
    wits[0].rids.push_back(static_cast<rid_t>(r));
  }

  const Table* cur = base;    // frontier: the node output carrying the delta
  size_t cur_old = old_n;     // frontier rows before this batch
  const int root = plan.root();
  const bool group_root = plan.node(root).kind == PlanOpKind::kGroupBy;
  const size_t out_old = pr->output.num_rows();
  GroupByDelta gdelta;

  for (int id : cache.path) {
    const PlanNode& node = plan.node(id);
    Table* out = NodeOutput(pr, id);
    const size_t cur_end = cur->num_rows();
    switch (node.kind) {
      case PlanOpKind::kSelect: {
        CaptureOptions dopts = CaptureOptions::Inject();
        dopts.capture_forward = false;  // witnesses only need backward
        SelectResult sel = SelectExecRange(
            *cur, node.label, static_cast<rid_t>(cur_old),
            static_cast<rid_t>(cur_end), node.predicates, dopts);
        const RidArray& bw = sel.lineage.input(0).backward.array();
        std::vector<size_t> pick(bw.size());
        for (size_t j = 0; j < bw.size(); ++j) pick[j] = bw[j] - cur_old;
        RemapWitnesses(pick, &wits);
        out->AppendAllRows(std::move(sel.output));
        stats->rows_scanned += cur_end - cur_old;
        break;
      }
      case PlanOpKind::kProject: {
        for (size_t r = cur_old; r < cur_end; ++r) {
          for (size_t k = 0; k < node.columns.size(); ++k) {
            out->mutable_column(k).AppendFrom(
                cur->column(static_cast<size_t>(node.columns[k])),
                static_cast<rid_t>(r));
          }
        }
        stats->rows_scanned += cur_end - cur_old;
        break;
      }
      case PlanOpKind::kDerive: {
        std::vector<BoundGroupExpr> bound(node.derives.size());
        for (size_t k = 0; k < node.derives.size(); ++k) {
          SMOKE_CHECK(BoundGroupExpr::Bind(*cur, node.derives[k], &bound[k]));
        }
        const size_t base_cols = cur->num_columns();
        for (size_t r = cur_old; r < cur_end; ++r) {
          out->AppendRowFrom(*cur, static_cast<rid_t>(r));
          for (size_t k = 0; k < bound.size(); ++k) {
            out->mutable_column(base_cols + k)
                .AppendInt(bound[k].Eval(static_cast<rid_t>(r)));
          }
        }
        stats->rows_scanned += cur_end - cur_old;
        break;
      }
      case PlanOpKind::kHashJoin: {
        const JoinHashTable& ht =
            *rs.results[static_cast<size_t>(id)].join_build;
        const int build_scan = node.children[0];
        const Table* build = plan.node(build_scan).table;
        const size_t build_cols = build->num_columns();
        const std::vector<int64_t>& pkeys = cur->column(
            static_cast<size_t>(node.join.right_key)).ints();
        std::vector<size_t> pick;
        Witness bwit;
        bwit.scan = build_scan;
        // The sequential probe loop of the kernel, over the delta only:
        // probe rows ascending, matches in build scan order.
        for (size_t b = cur_old; b < cur_end; ++b) {
          const uint32_t slot = ht.map.Find(pkeys[b]);
          if (slot == IntKeyMap::kNotFound) continue;
          const rid_t* match = ht.rids(slot);
          const size_t nm = ht.count(slot);
          for (size_t m = 0; m < nm; ++m) {
            out->AppendRowFrom(*build, match[m]);
            out->AppendRowFrom(*cur, static_cast<rid_t>(b), build_cols);
            pick.push_back(b - cur_old);
            bwit.rids.push_back(match[m]);
          }
        }
        RemapWitnesses(pick, &wits);
        wits.push_back(std::move(bwit));
        stats->rows_scanned += cur_end - cur_old;
        break;
      }
      case PlanOpKind::kGroupBy: {
        GroupByHandle* h =
            rs.results[static_cast<size_t>(root)].group_by.get();
        gdelta = GroupByDeltaAppend(h, *cur, static_cast<rid_t>(cur_old),
                                    &pr->output);
        stats->rows_scanned += cur_end - cur_old;
        break;
      }
      default:
        SMOKE_CHECK(false);
    }
    cur = out;
    cur_old = out->num_rows() -
              (node.kind == PlanOpKind::kGroupBy
                   ? 0  // group output rows are patched, not all appended
                   : wits[0].rids.size());
    if (node.kind != PlanOpKind::kGroupBy) {
      // All witness columns stay aligned with the node's delta output rows.
      SMOKE_DCHECK(cur_old + wits[0].rids.size() == out->num_rows());
    }
  }

  // ---- composed-index maintenance ----
  size_t edges = 0;
  const size_t dn = wits[0].rids.size();  // delta rows at the root's input
  // The output rid delta row j reaches: its group, or its new output row.
  auto out_of = [&](size_t j) {
    return group_root ? static_cast<rid_t>(gdelta.slots[j])
                      : static_cast<rid_t>(out_old + j);
  };
  for (size_t i = 0; i < pr->lineage.num_inputs(); ++i) {
    TableLineage& tl = pr->lineage.mutable_input(i);
    const Witness* wit = nullptr;
    for (const Witness& w : wits) {
      if (plan.node(w.scan).label == tl.table_name) {
        wit = &w;
        break;
      }
    }
    SMOKE_CHECK(wit != nullptr);  // chain shape: every scan is on the path
    edges += dn;  // backward: one edge per delta row

    if (!group_root) {
      // Backward is 1:1 per relation: one new entry per delta output row.
      for (size_t j = 0; j < dn; ++j) {
        AppendArrayValue(&tl.backward, wit->rids[j], codec);
      }
    } else {
      // Backward: existing groups extend their lists once per batch, in
      // delta encounter order (== full re-execution's input scan order);
      // new groups append whole lists in slot order.
      const size_t old_ng = gdelta.old_num_groups;
      std::vector<std::pair<rid_t, rid_t>> extend;  // (slot, rid)
      std::vector<std::vector<rid_t>> fresh(pr->output.num_rows() - old_ng);
      for (size_t j = 0; j < dn; ++j) {
        const uint32_t slot = gdelta.slots[j];
        if (slot >= old_ng) {
          fresh[slot - old_ng].push_back(wit->rids[j]);
        } else {
          extend.emplace_back(slot, wit->rids[j]);
        }
      }
      ForEachKeyRun(&extend, [&](rid_t slot, const rid_t* d, size_t n) {
        ExtendIndexList(&tl.backward, slot, d, n, codec);
      });
      for (const auto& l : fresh) {
        AppendIndexList(&tl.backward, l.data(), l.size(), codec);
      }
    }

    if (wit->scan == cache.delta_scan) {
      // New source positions for the appended base rows, each holding the
      // outputs it reaches (deduplicated: under a group root several join
      // matches of one row can feed the same group).
      std::vector<std::vector<rid_t>> lists(new_n - old_n);
      for (size_t j = 0; j < dn; ++j) {
        lists[wit->rids[j] - old_n].push_back(out_of(j));
      }
      for (auto& l : lists) {
        std::sort(l.begin(), l.end());
        l.erase(std::unique(l.begin(), l.end()), l.end());
        AppendIndexList(&tl.forward, l.data(), l.size(), codec);
        edges += l.size();
      }
    } else if (!group_root) {
      // Static build relation: new output rids extend existing lists at
      // the tail, once per build row (output rids ascend, lists stay
      // sorted-deduped).
      std::vector<std::pair<rid_t, rid_t>> extend;  // (build rid, output)
      for (size_t j = 0; j < dn; ++j) {
        extend.emplace_back(wit->rids[j], out_of(j));
      }
      ForEachKeyRun(&extend, [&](rid_t row, const rid_t* d, size_t n) {
        ExtendIndexList(&tl.forward, row, d, n, codec);
      });
      edges += dn;
    } else {
      // Static relation under a group root: a build row may gain a group
      // it already fed (no-op), an existing group it never fed (sorted
      // mid-list insert), or a new group (tail append) — the one
      // maintenance case that is not purely append-shaped.
      for (size_t j = 0; j < dn; ++j) {
        InsertSortedIntoIndexList(&tl.forward, wit->rids[j],
                                  gdelta.slots[j], codec);
      }
      edges += dn;
    }
  }
  stats->index_bytes_appended = edges * sizeof(rid_t);

  if (group_root) {
    stats->groups_touched = gdelta.touched.size();
    stats->new_groups = pr->output.num_rows() - gdelta.old_num_groups;
    stats->output_rows_appended = stats->new_groups;
  } else {
    stats->output_rows_appended = pr->output.num_rows() - out_old;
  }
  pr->output_cardinality = pr->output.num_rows();
  pr->lineage.set_output_cardinality(pr->output_cardinality);
  cache.scan_rows[cache.delta_scan] = new_n;
  stats->incremental = true;
  return Status::OK();
}

Status RebuildRetainedPlan(PlanResult* pr) {
  if (pr == nullptr || pr->refresh == nullptr) {
    return Status::InvalidArgument(
        "no refresh state retained; cannot rebuild without the plan");
  }
  // Keep the state alive across the overwrite of *pr: the plan being
  // re-executed lives inside it.
  std::shared_ptr<PlanRefreshState> rs = pr->refresh;
  CaptureOptions opts = rs->opts;
  opts.optimize = false;  // the stashed plan is the optimized one
  PlanResult fresh;
  SMOKE_RETURN_NOT_OK(ExecutePlan(rs->plan, opts, &fresh));
  *pr = std::move(fresh);
  return AnalyzeRefreshability(pr);
}

Status ClonePlanResultForServe(
    const PlanResult& src,
    const std::unordered_map<const Table*, const Table*>& rebind,
    LineageCodec codec, PlanResult* out) {
  if (src.HasDeferred()) {
    return Status::InvalidArgument(
        "cannot clone a result with pending deferred capture");
  }
  if (src.query.fact != nullptr || !src.applied_pushdown.empty()) {
    return Status::InvalidArgument(
        "cannot clone a result with SPJA block artifacts");
  }
  PlanResult copy;
  copy.output = src.output;
  copy.output_cardinality = src.output_cardinality;
  copy.owned_tables = src.owned_tables;
  for (size_t i = 0; i < src.lineage.num_inputs(); ++i) {
    const TableLineage& in = src.lineage.input(i);
    const Table* table = in.table;
    if (auto it = rebind.find(table); it != rebind.end()) table = it->second;
    TableLineage& tl = copy.lineage.AddInput(in.table_name, table);
    tl.backward = EncodeLineageCopy(in.backward, codec);
    tl.forward = EncodeLineageCopy(in.forward, codec);
  }
  copy.lineage.set_output_cardinality(src.lineage.output_cardinality());
  copy.lineage.set_evicted(src.lineage.evicted());
  *out = std::move(copy);
  return Status::OK();
}

// ---- RefreshManager ----

Status RefreshManager::RegisterTable(const std::string& name, Table* table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  tables_[name] = table;
  return Status::OK();
}

Status RefreshManager::RegisterView(const std::string& name,
                                    PlanResult* view) {
  if (view == nullptr) return Status::InvalidArgument("null view");
  for (const auto& [vname, v] : views_) {
    (void)v;
    if (vname == name) return Status::AlreadyExists("view '" + name + "'");
  }
  SMOKE_RETURN_NOT_OK(AnalyzeRefreshability(view));
  views_.emplace_back(name, view);
  return Status::OK();
}

Status RefreshManager::AppendBatch(const std::string& table,
                                   const Table& rows,
                                   std::vector<RefreshStats>* stats) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table '" + table + "'");
  Table* dst = it->second;
  if (rows.num_columns() != dst->num_columns()) {
    return Status::InvalidArgument("AppendBatch('" + table +
                                   "'): column count mismatch");
  }
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    dst->AppendRowFrom(rows, static_cast<rid_t>(r));
  }
  for (auto& [vname, view] : views_) {
    RefreshStats s;
    SMOKE_RETURN_NOT_OK(RefreshPlanAppend(view, &s));
    if (!s.incremental) {
      // Scoped rebuild fallback; keep the reason the delta pass reported.
      std::string reason = s.fallback_reason;
      SMOKE_RETURN_NOT_OK(RebuildRetainedPlan(view));
      s = RefreshStats{};
      s.table = table;
      s.delta_rows = rows.num_rows();
      s.fallback_reason = std::move(reason);
      s.output_rows_appended = view->output.num_rows();
      s.rows_scanned = 0;  // the rebuild re-scanned everything, not a delta
    }
    s.target = vname;
    last_[vname] = s;
    if (stats != nullptr) stats->push_back(std::move(s));
  }
  return Status::OK();
}

const RefreshStats* RefreshManager::LastStats(const std::string& view) const {
  auto it = last_.find(view);
  return it == last_.end() ? nullptr : &it->second;
}

}  // namespace smoke
