#include "shard/coordinator.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "engine/group_by.h"
#include "engine/key_encode.h"
#include "lineage/compose.h"
#include "optimizer/optimizer.h"

namespace smoke {

namespace {

/// Label of the synthetic scan that stands in for the sharded region (or the
/// exchange output) inside the coordinator's remainder plan. Never emitted:
/// the final lineage speaks the original scan labels.
const char kBoundaryLabel[] = "__shard_boundary";

/// An accumulated output→region (or region→output) mapping; identity when
/// the region root is the plan root.
struct Chain {
  LineageIndex index;
  bool identity = false;
};

LineageIndex ComposeBackwardChain(const Chain& outer, LineageIndex inner) {
  if (outer.identity) return inner;
  return ComposeBackward(outer.index, inner);
}

LineageIndex ComposeForwardChain(LineageIndex inner, const Chain& outer) {
  if (outer.identity) return inner;
  return ComposeForward(inner, outer.index);
}

/// The single related rid of a 1:1 backward index at `pos` (defensive over
/// physical forms: composed subtree backward indexes to the driver are 1:1
/// by construction — every region row has exactly one driver ancestor).
rid_t SingleRidAt(const LineageIndex& idx, rid_t pos) {
  if (idx.IsOneToOne()) return idx.ValueAt(pos);
  rid_t found = kInvalidRid;
  idx.ForEachRelated(pos, [&found](rid_t r) {
    SMOKE_DCHECK(found == kInvalidRid);
    found = r;
  });
  SMOKE_DCHECK(found != kInvalidRid);
  return found;
}

/// One base-scan stand-in inside the per-shard template plan.
struct TemplateScan {
  enum class Kind : uint8_t {
    kDriver,     ///< the sharded driver scan — reads its shard slice
    kColocated,  ///< co-located build scan — reads the build table's slice
    kBroadcast,  ///< build child was a base scan — every shard reads it
    kPrep,       ///< build child was an operator — reads its prepared output
  };
  Kind kind = Kind::kDriver;
  int orig_id = -1;
  const ShardedTable* sh = nullptr;  ///< kDriver / kColocated
  int prep = -1;                     ///< kPrep: index into preps
};

/// Classification of the plan around one candidate driver scan.
struct Region {
  int driver = -1;
  int root = -1;                ///< region root R (== driver when trivial)
  std::vector<int> spine;       ///< driver .. root
  int exchange = -1;            ///< group-by fused as partial-agg exchange
  /// Spine joins' build children, in spine order.
  struct Build {
    int join = -1;
    int child = -1;
    bool colocated = false;
    bool is_scan = false;
    const ShardedTable* sh = nullptr;  ///< co-located build table
  };
  std::vector<Build> builds;
};

/// All nodes reachable downward from `id` (inclusive).
std::vector<int> DownSet(const LogicalPlan& plan, int id) {
  std::vector<int> out;
  std::vector<uint8_t> seen(plan.num_nodes(), 0);
  std::vector<int> stack = {id};
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    if (seen[static_cast<size_t>(u)]) continue;
    seen[static_cast<size_t>(u)] = 1;
    out.push_back(u);
    for (int c : plan.node(u).children) stack.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// True when the subtree under build child `b` is isolated: no node in it is
/// reached from outside except `b` itself through its spine join `join`.
/// Isolation is what lets the coordinator execute the build side once and
/// broadcast it without replaying the original DAG's lineage merges.
bool BuildIsolated(const LogicalPlan& plan,
                   const std::vector<std::vector<int>>& parents, int join,
                   int b) {
  std::vector<int> down = DownSet(plan, b);
  std::vector<uint8_t> in(plan.num_nodes(), 0);
  for (int u : down) in[static_cast<size_t>(u)] = 1;
  for (int u : down) {
    for (int p : parents[static_cast<size_t>(u)]) {
      if (in[static_cast<size_t>(p)]) continue;
      if (u == b && p == join) continue;
      return false;
    }
  }
  // b must be consumed by the join exactly once (a self-join of b against
  // itself cannot broadcast one side).
  int uses = 0;
  for (int p : parents[static_cast<size_t>(b)]) uses += (p == join);
  return uses == 1 && parents[static_cast<size_t>(b)].size() == 1;
}

/// Climbs the maximal sharded region above `driver`.
Region ClassifyFrom(const LogicalPlan& plan, const ShardResolver& sharded,
                    const std::vector<std::vector<int>>& parents, int driver) {
  Region r;
  r.driver = driver;
  r.spine = {driver};
  const ShardedTable* st = sharded.at(plan.node(driver).table);
  int cur = driver;
  for (;;) {
    const auto& ps = parents[static_cast<size_t>(cur)];
    if (ps.size() != 1) break;
    const int p = ps[0];
    const PlanNode& pn = plan.node(p);
    if (pn.kind == PlanOpKind::kSelect || pn.kind == PlanOpKind::kProject ||
        pn.kind == PlanOpKind::kDerive) {
      r.spine.push_back(p);
      cur = p;
      continue;
    }
    if (pn.kind == PlanOpKind::kHashJoin && pn.children[1] == cur &&
        pn.children[0] != cur) {
      const int b = pn.children[0];
      if (!BuildIsolated(plan, parents, p, b)) break;
      Region::Build bd;
      bd.join = p;
      bd.child = b;
      const PlanNode& bn = plan.node(b);
      bd.is_scan = bn.kind == PlanOpKind::kScan;
      // Co-located build: both join children are direct scans of tables
      // hash-sharded on their join keys with equal shard counts — matching
      // keys land in the same shard (ShardOfHash is shared), so each shard
      // builds from its own build slice instead of the broadcast table.
      if (bd.is_scan && cur == driver &&
          st->spec().kind == ShardingSpec::Kind::kHash &&
          pn.join.right_key == st->spec().column) {
        auto it = sharded.find(bn.table);
        if (it != sharded.end() &&
            it->second->spec().kind == ShardingSpec::Kind::kHash &&
            it->second->num_shards() == st->num_shards() &&
            pn.join.left_key == it->second->spec().column) {
          bd.colocated = true;
          bd.sh = it->second;
        }
      }
      r.builds.push_back(bd);
      r.spine.push_back(p);
      cur = p;
      continue;
    }
    break;
  }
  r.root = r.spine.back();
  // Partial-aggregate exchange: a group-by consuming the region root as its
  // only parent.
  const auto& rps = parents[static_cast<size_t>(r.root)];
  if (rps.size() == 1 && plan.node(rps[0]).kind == PlanOpKind::kGroupBy) {
    r.exchange = rps[0];
  }
  return r;
}

/// Clears pruned directions/relations from emitted lineage, matching the
/// unsharded executor's observable pruning semantics (pruned entries exist
/// but stay empty).
void ApplyUserPruning(QueryLineage* lineage, const CaptureOptions& opts) {
  for (size_t i = 0; i < lineage->num_inputs(); ++i) {
    TableLineage& in = lineage->mutable_input(i);
    if (!opts.WantsTable(in.table_name)) {
      in.backward = LineageIndex();
      in.forward = LineageIndex();
      continue;
    }
    if (!opts.capture_backward) in.backward = LineageIndex();
    if (!opts.capture_forward) in.forward = LineageIndex();
  }
}

/// Internal capture configuration for coordinator-run sub-plans.
CaptureOptions InnerOpts(const CaptureOptions& user, bool backward,
                         bool forward) {
  CaptureOptions o;
  o.mode = (backward || forward) ? CaptureMode::kInject : CaptureMode::kNone;
  o.capture_backward = backward;
  o.capture_forward = forward;
  o.num_threads = user.num_threads;
  o.scheduler = user.scheduler;
  o.morsel_rows = user.morsel_rows;
  o.optimize = false;
  return o;
}

}  // namespace

Status ExecuteShardedPlan(const LogicalPlan& plan, const ShardResolver& sharded,
                          const CaptureOptions& opts, PlanResult* out) {
  if (plan.root() < 0) return Status::InvalidArgument("plan has no root");

  // Optimize first so classification sees the final (rewritten) DAG; the
  // rewrites preserve results and lineage bit-identically either way.
  if (opts.optimize) {
    LogicalPlan optimized;
    PlanExplain explain;
    SMOKE_RETURN_NOT_OK(OptimizePlan(plan, &optimized, &explain));
    CaptureOptions inner = opts;
    inner.optimize = false;
    SMOKE_RETURN_NOT_OK(ExecuteShardedPlan(optimized, sharded, inner, out));
    out->explain = std::move(explain);
    return Status::OK();
  }

  const int root = plan.root();
  const size_t n = plan.num_nodes();

  std::vector<uint8_t> reachable(n, 0);
  {
    std::vector<int> stack = {root};
    while (!stack.empty()) {
      int id = stack.back();
      stack.pop_back();
      if (reachable[static_cast<size_t>(id)]) continue;
      reachable[static_cast<size_t>(id)] = 1;
      for (int c : plan.node(id).children) stack.push_back(c);
    }
  }

  std::vector<int> sharded_scans;
  for (size_t id = 0; id < n; ++id) {
    if (!reachable[id]) continue;
    const PlanNode& node = plan.node(static_cast<int>(id));
    if (node.kind == PlanOpKind::kScan &&
        sharded.count(node.table) != 0) {
      sharded_scans.push_back(static_cast<int>(id));
    }
  }
  if (sharded_scans.empty() || plan.node(root).kind == PlanOpKind::kScan) {
    // Nothing sharded (or the root-is-scan error path): plain execution.
    return ExecutePlan(plan, opts, out);
  }

  if (opts.mode != CaptureMode::kNone && !IsSmokeMode(opts.mode)) {
    return Status::Unsupported(
        "sharded execution supports the Smoke capture modes only "
        "(kNone/kInject/kDefer)");
  }
  if (opts.defer_plan_finalize) {
    return Status::Unsupported(
        "sharded execution composes cross-shard lineage eagerly; "
        "defer_plan_finalize is not supported — drop the flag or execute "
        "unsharded");
  }

  std::vector<std::vector<int>> parents(n);
  for (size_t id = 0; id < n; ++id) {
    if (!reachable[id]) continue;
    for (int c : plan.node(static_cast<int>(id)).children) {
      parents[static_cast<size_t>(c)].push_back(static_cast<int>(id));
    }
  }

  // Pick the driver: the sharded scan with the tallest region (most work
  // pushed down to the shards); ties go to the lowest node id.
  Region region;
  for (int cand : sharded_scans) {
    Region r = ClassifyFrom(plan, sharded, parents, cand);
    if (region.driver < 0 || r.spine.size() > region.spine.size()) {
      region = std::move(r);
    }
  }
  const int driver = region.driver;
  const std::string& driver_label = plan.node(driver).label;
  const ShardedTable* st = sharded.at(plan.node(driver).table);
  const ShardMap& smap = st->map();
  const uint32_t S = st->num_shards();

  const bool capture = opts.mode != CaptureMode::kNone;
  const bool want_b = capture && opts.capture_backward;
  const bool want_f = capture && opts.capture_forward;
  const bool trivial = region.root == driver;

  // ---- degenerate region: nothing above the scan shards — run the plan
  // unsharded.
  if (trivial && region.exchange < 0) {
    SMOKE_RETURN_NOT_OK(
        ExecutePlan(plan, InnerOpts(opts, want_b, want_f), out));
    ApplyUserPruning(&out->lineage, opts);
    return Status::OK();
  }

  // ---- broadcast build preparation: execute operator build sides once ----
  struct Prep {
    PlanResult result;
    std::vector<int> scan_ids;  ///< original ids of its scans, ascending
  };
  std::vector<Prep> preps;
  std::unordered_map<int, int> prep_of_child;  // build child id -> prep index
  for (const Region::Build& b : region.builds) {
    if (b.is_scan) continue;
    Prep prep;
    PlanBuilder pb;
    std::vector<int> newid(n, -1);
    for (int id : DownSet(plan, b.child)) {
      const PlanNode& node = plan.node(id);
      if (node.kind == PlanOpKind::kScan) {
        newid[static_cast<size_t>(id)] = pb.Scan(node.table, node.label);
        prep.scan_ids.push_back(id);
      } else {
        PlanNode clone = node;
        for (int& c : clone.children) c = newid[static_cast<size_t>(c)];
        newid[static_cast<size_t>(id)] = pb.AddNode(std::move(clone));
      }
    }
    LogicalPlan sub;
    SMOKE_RETURN_NOT_OK(pb.Build(newid[static_cast<size_t>(b.child)], &sub));
    SMOKE_RETURN_NOT_OK(
        ExecutePlan(sub, InnerOpts(opts, want_b, want_f), &prep.result));
    prep_of_child[b.child] = static_cast<int>(preps.size());
    preps.push_back(std::move(prep));
  }

  // ---- template scans, in ascending original-id order ----
  std::vector<int> members = region.spine;
  for (const Region::Build& b : region.builds) members.push_back(b.child);
  std::sort(members.begin(), members.end());
  std::vector<TemplateScan> tscans;
  for (int id : members) {
    if (id == driver) {
      TemplateScan t;
      t.kind = TemplateScan::Kind::kDriver;
      t.orig_id = id;
      t.sh = st;
      tscans.push_back(t);
      continue;
    }
    for (const Region::Build& b : region.builds) {
      if (b.child != id) continue;
      TemplateScan t;
      t.orig_id = id;
      if (b.colocated) {
        t.kind = TemplateScan::Kind::kColocated;
        t.sh = b.sh;
      } else if (b.is_scan) {
        t.kind = TemplateScan::Kind::kBroadcast;
      } else {
        t.kind = TemplateScan::Kind::kPrep;
        t.prep = prep_of_child.at(id);
      }
      tscans.push_back(t);
      break;
    }
  }
  int driver_tpos = -1;
  for (size_t i = 0; i < tscans.size(); ++i) {
    if (tscans[i].kind == TemplateScan::Kind::kDriver) {
      driver_tpos = static_cast<int>(i);
    }
  }

  // ---- per-shard region execution ----
  struct ShardRun {
    PlanResult result;           // non-trivial regions only
    const Table* rows = nullptr; // region-local output rows
    std::vector<rid_t> keys;     // local row -> global driver rid (order key)
  };
  std::vector<ShardRun> runs(S);
  // Internal capture: backward is always on — the gather merge needs the
  // driver order keys even when the caller captures nothing. When the
  // caller captures nothing else, relation pruning trims capture to the
  // driver path.
  CaptureOptions shard_opts = InnerOpts(opts, /*backward=*/true, want_f);
  if (!capture) shard_opts.only_relations = {driver_label};
  for (uint32_t s = 0; s < S; ++s) {
    if (trivial) {
      runs[s].rows = &st->shard(s);
      runs[s].keys.assign(smap.globals_of(s).begin(),
                          smap.globals_of(s).end());
      continue;
    }
    PlanBuilder pb;
    std::vector<int> newid(n, -1);
    for (int id : members) {
      const PlanNode& node = plan.node(id);
      if (id == driver) {
        newid[static_cast<size_t>(id)] = pb.Scan(&st->shard(s), node.label);
        continue;
      }
      bool is_build_child = false;
      for (const Region::Build& b : region.builds) {
        if (b.child != id) continue;
        is_build_child = true;
        const Table* src = b.colocated ? &b.sh->shard(s)
                           : b.is_scan ? node.table
                                       : &preps[static_cast<size_t>(
                                              prep_of_child.at(id))]
                                              .result.output;
        newid[static_cast<size_t>(id)] = pb.Scan(src, node.label);
        break;
      }
      if (is_build_child) continue;
      PlanNode clone = node;
      for (int& c : clone.children) c = newid[static_cast<size_t>(c)];
      newid[static_cast<size_t>(id)] = pb.AddNode(std::move(clone));
    }
    LogicalPlan sp;
    SMOKE_RETURN_NOT_OK(pb.Build(newid[static_cast<size_t>(region.root)], &sp));
    SMOKE_RETURN_NOT_OK(ExecutePlan(sp, shard_opts, &runs[s].result));
    runs[s].rows = &runs[s].result.output;
    const LineageIndex& db =
        runs[s].result.lineage.input(static_cast<size_t>(driver_tpos))
            .backward;
    const size_t rows = runs[s].rows->num_rows();
    runs[s].keys.resize(rows);
    for (size_t p = 0; p < rows; ++p) {
      runs[s].keys[p] =
          smap.ToGlobal(s, SingleRidAt(db, static_cast<rid_t>(p)));
    }
  }

  // ---- gather permutation: stable merge by driver order key ----
  // Per-shard key sequences are non-decreasing (slices preserve global rid
  // order; the region's operators preserve input order) and a driver rid
  // lives in exactly one shard, so the stable sort reproduces the exact
  // unsharded row order, duplicates (join fan-out) included.
  std::vector<ShardLoc> owner;
  std::vector<std::vector<rid_t>> gpos(S);
  {
    size_t total = 0;
    for (uint32_t s = 0; s < S; ++s) total += runs[s].keys.size();
    owner.reserve(total);
    for (uint32_t s = 0; s < S; ++s) {
      gpos[s].resize(runs[s].keys.size());
      for (size_t p = 0; p < runs[s].keys.size(); ++p) {
        owner.push_back(ShardLoc{s, static_cast<rid_t>(p)});
      }
    }
    std::stable_sort(owner.begin(), owner.end(),
                     [&runs](const ShardLoc& a, const ShardLoc& b) {
                       return runs[a.shard].keys[a.local] <
                              runs[b.shard].keys[b.local];
                     });
    for (size_t q = 0; q < owner.size(); ++q) {
      gpos[owner[q].shard][owner[q].local] = static_cast<rid_t>(q);
    }
  }
  const size_t region_rows = owner.size();

  // Gathered region backward/forward per template scan, built on demand.
  // Backward: region row -> scan rids, concatenated in gather order with
  // rids remapped through the scan's ShardMap (driver / co-located) or kept
  // (broadcast / prep — every shard reads the same rows).
  auto gather_backward = [&](int tpos) -> LineageIndex {
    const TemplateScan& t = tscans[static_cast<size_t>(tpos)];
    if (trivial) {
      // No spine ran (runs[s].result is empty): the region rows ARE the
      // driver slice rows, so the gather lineage is the codec itself.
      RidArray arr(region_rows, kInvalidRid);
      for (size_t q = 0; q < region_rows; ++q) {
        arr[q] = smap.ToGlobal(owner[q].shard, owner[q].local);
      }
      return LineageIndex::FromArray(std::move(arr));
    }
    bool all_one = true;
    for (uint32_t s = 0; s < S; ++s) {
      const LineageIndex& b =
          runs[s].result.lineage.input(static_cast<size_t>(tpos)).backward;
      all_one &= b.IsOneToOne();
    }
    auto remap = [&](uint32_t s, rid_t r) -> rid_t {
      if (r == kInvalidRid) return r;
      return t.sh != nullptr ? t.sh->map().ToGlobal(s, r) : r;
    };
    if (all_one) {
      RidArray arr(region_rows, kInvalidRid);
      for (size_t q = 0; q < region_rows; ++q) {
        const ShardLoc& loc = owner[q];
        const LineageIndex& b =
            runs[loc.shard].result.lineage.input(static_cast<size_t>(tpos))
                .backward;
        arr[q] = remap(loc.shard, b.ValueAt(loc.local));
      }
      return LineageIndex::FromArray(std::move(arr));
    }
    RidIndex idx(region_rows);
    std::vector<rid_t> tmp;
    for (size_t q = 0; q < region_rows; ++q) {
      const ShardLoc& loc = owner[q];
      const LineageIndex& b =
          runs[loc.shard].result.lineage.input(static_cast<size_t>(tpos))
              .backward;
      tmp.clear();
      b.TraceInto(loc.local, &tmp);
      for (rid_t r : tmp) idx.Append(q, remap(loc.shard, r));
    }
    return LineageIndex::FromIndex(std::move(idx));
  };
  // Forward: scan rid -> region rows. Driver / co-located inputs are
  // disjoint across shards; broadcast / prep inputs union across shards
  // (disjoint region rows, so a plain sort restores the sorted invariant).
  auto gather_forward = [&](int tpos) -> LineageIndex {
    const TemplateScan& t = tscans[static_cast<size_t>(tpos)];
    const size_t domain =
        t.sh != nullptr
            ? t.sh->base()->num_rows()
            : (t.kind == TemplateScan::Kind::kPrep
                   ? preps[static_cast<size_t>(t.prep)].result.output.num_rows()
                   : plan.node(t.orig_id).table->num_rows());
    if (trivial) {
      RidArray arr(domain, kInvalidRid);
      for (size_t q = 0; q < region_rows; ++q) {
        arr[smap.ToGlobal(owner[q].shard, owner[q].local)] =
            static_cast<rid_t>(q);
      }
      return LineageIndex::FromArray(std::move(arr));
    }
    if (t.sh != nullptr) {
      bool all_one = true;
      for (uint32_t s = 0; s < S; ++s) {
        all_one &= runs[s]
                       .result.lineage.input(static_cast<size_t>(tpos))
                       .forward.IsOneToOne();
      }
      if (all_one) {
        RidArray arr(domain, kInvalidRid);
        for (uint32_t s = 0; s < S; ++s) {
          const LineageIndex& f =
              runs[s].result.lineage.input(static_cast<size_t>(tpos)).forward;
          for (size_t l = 0; l < f.size(); ++l) {
            rid_t v = f.ValueAt(static_cast<rid_t>(l));
            arr[t.sh->map().ToGlobal(s, static_cast<rid_t>(l))] =
                v == kInvalidRid ? kInvalidRid : gpos[s][v];
          }
        }
        return LineageIndex::FromArray(std::move(arr));
      }
    }
    RidIndex idx(domain);
    std::vector<rid_t> tmp;
    for (uint32_t s = 0; s < S; ++s) {
      const LineageIndex& f =
          runs[s].result.lineage.input(static_cast<size_t>(tpos)).forward;
      for (size_t l = 0; l < f.size(); ++l) {
        tmp.clear();
        f.TraceInto(static_cast<rid_t>(l), &tmp);
        rid_t in = t.sh != nullptr
                       ? t.sh->map().ToGlobal(s, static_cast<rid_t>(l))
                       : static_cast<rid_t>(l);
        for (rid_t v : tmp) idx.Append(in, gpos[s][v]);
      }
    }
    for (size_t i = 0; i < domain; ++i) {
      RidVec& l = idx.list(i);
      std::sort(l.data(), l.data() + l.size());
    }
    return LineageIndex::FromIndex(std::move(idx));
  };

  // ---- partial-aggregate exchange ----
  Table exchange_out;
  Chain x_b, x_f;  // exchange output <-> region rows
  x_b.identity = x_f.identity = true;
  size_t boundary_rows = region_rows;
  std::vector<GroupByResult> partials;
  if (region.exchange >= 0) {
    const GroupBySpec& spec = plan.node(region.exchange).group_by;
    CaptureOptions gopts = InnerOpts(opts, /*backward=*/true,
                                     /*forward=*/false);
    gopts.num_threads = opts.num_threads;
    gopts.scheduler = opts.scheduler;
    gopts.morsel_rows = opts.morsel_rows;
    partials.reserve(S);
    for (uint32_t s = 0; s < S; ++s) {
      partials.push_back(GroupByExec(*runs[s].rows, "part", spec, gopts));
    }
    const AggLayout& layout = partials[0].handle->layout();
    const size_t stride = layout.stride();
    const size_t num_keys = spec.keys.size();
    std::vector<int> out_key_cols;
    for (size_t k = 0; k < num_keys; ++k) {
      out_key_cols.push_back(static_cast<int>(k));
    }
    struct MergedGroup {
      std::vector<double> state;
      uint32_t src_shard = 0;
      uint32_t src_slot = 0;
      rid_t min_pos = kInvalidRid;  ///< first-encounter region row
      std::vector<rid_t> region_rids;
    };
    std::vector<MergedGroup> groups;
    std::unordered_map<std::string, size_t> slot_of;
    std::vector<rid_t> tmp;
    for (uint32_t s = 0; s < S; ++s) {
      const GroupByResult& gr = partials[s];
      const std::vector<double>& state = gr.handle->agg_state();
      const size_t ng = gr.handle->num_groups();
      const LineageIndex& gb = gr.lineage.input(0).backward;
      for (size_t g = 0; g < ng; ++g) {
        std::string key =
            EncodeRowKey(gr.output, out_key_cols, static_cast<rid_t>(g));
        tmp.clear();
        gb.TraceInto(static_cast<rid_t>(g), &tmp);  // ascending local rids
        auto [it, fresh] = slot_of.emplace(std::move(key), groups.size());
        if (fresh) {
          groups.emplace_back();
          MergedGroup& m = groups.back();
          m.state.assign(state.begin() + static_cast<long>(g * stride),
                         state.begin() + static_cast<long>((g + 1) * stride));
          m.src_shard = s;
          m.src_slot = static_cast<uint32_t>(g);
        } else {
          layout.Merge(groups[it->second].state.data(),
                       state.data() + g * stride);
        }
        MergedGroup& m = groups[it->second];
        for (rid_t r : tmp) {
          rid_t q = gpos[s][r];
          m.region_rids.push_back(q);
          if (q < m.min_pos || m.min_pos == kInvalidRid) m.min_pos = q;
        }
      }
    }
    // Merged groups emit in global first-encounter order — the order the
    // unsharded group-by would have assigned slots scanning the gathered
    // input.
    std::vector<size_t> order(groups.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&groups](size_t a, size_t b) {
      return groups[a].min_pos < groups[b].min_pos;
    });
    exchange_out = Table(partials[0].output.schema());
    std::vector<Column*> agg_cols;
    for (size_t a = 0; a < layout.num_aggs(); ++a) {
      agg_cols.push_back(&exchange_out.mutable_column(num_keys + a));
    }
    RidIndex xb(groups.size());
    RidArray xf;
    if (want_f) xf.assign(region_rows, kInvalidRid);
    for (size_t m = 0; m < order.size(); ++m) {
      MergedGroup& g = groups[order[m]];
      const Table& src = partials[g.src_shard].output;
      for (size_t k = 0; k < num_keys; ++k) {
        exchange_out.mutable_column(k).AppendFrom(src.column(k), g.src_slot);
      }
      layout.Finalize(g.state.data(), &agg_cols);
      std::sort(g.region_rids.begin(), g.region_rids.end());
      for (rid_t q : g.region_rids) {
        xb.Append(m, q);
        if (want_f) xf[q] = static_cast<rid_t>(m);
      }
    }
    boundary_rows = groups.size();
    x_b.identity = false;
    x_b.index = LineageIndex::FromIndex(std::move(xb));
    if (want_f) {
      x_f.identity = false;
      x_f.index = LineageIndex::FromArray(std::move(xf));
    }
  }

  // ---- gathered boundary table ----
  const int boundary = region.exchange >= 0 ? region.exchange : region.root;
  Table gathered;
  if (region.exchange < 0) {
    gathered = Table(runs[0].rows->schema());
    gathered.Reserve(region_rows);
    for (const ShardLoc& loc : owner) {
      gathered.AppendRowFrom(*runs[loc.shard].rows, loc.local);
    }
  }
  Table& boundary_table = region.exchange >= 0 ? exchange_out : gathered;

  // ---- remainder: the plan above the boundary, on the coordinator ----
  // Remainder node ids preserve the original nodes' relative order, so the
  // executor's top-down DAG lineage merges happen in the original order —
  // the composition below the boundary then distributes over those merges
  // (compose is associative; merge concatenates/unions), keeping the final
  // indexes bit-identical to the unsharded run.
  Chain rem_b, rem_f;
  rem_b.identity = rem_f.identity = true;
  std::vector<TableLineage> rem_inputs;  // non-boundary, ascending orig id
  std::vector<uint8_t> consumed(n, 0);
  for (int id : DownSet(plan, region.root)) consumed[static_cast<size_t>(id)] = 1;
  if (region.exchange >= 0) consumed[static_cast<size_t>(region.exchange)] = 1;
  if (boundary == root) {
    out->output = std::move(boundary_table);
    out->output_cardinality = boundary_rows;
  } else {
    PlanBuilder pb;
    std::vector<int> newid(n, -1);
    for (size_t id = 0; id < n; ++id) {
      if (!reachable[id]) continue;
      if (static_cast<int>(id) == boundary) {
        newid[id] = pb.Scan(&boundary_table, kBoundaryLabel);
        continue;
      }
      if (consumed[id]) continue;
      PlanNode clone = plan.node(static_cast<int>(id));
      for (int& c : clone.children) c = newid[static_cast<size_t>(c)];
      newid[id] = pb.AddNode(std::move(clone));
    }
    LogicalPlan rplan;
    SMOKE_RETURN_NOT_OK(pb.Build(newid[static_cast<size_t>(root)], &rplan));
    PlanResult rr;
    SMOKE_RETURN_NOT_OK(
        ExecutePlan(rplan, InnerOpts(opts, capture, want_f), &rr));
    out->output = std::move(rr.output);
    out->output_cardinality = rr.output_cardinality;
    // Block artifacts only: the remainder block's query reads the
    // coordinator-local boundary table, so it is not kept.
    static_cast<SPJAArtifacts&>(*out) =
        std::move(static_cast<SPJAArtifacts&>(rr));
    out->query = SPJAQuery();
    out->owned_tables = std::move(rr.owned_tables);
    for (size_t i = 0; i < rr.lineage.num_inputs(); ++i) {
      TableLineage& in = rr.lineage.mutable_input(i);
      if (in.table_name == kBoundaryLabel) {
        rem_b.identity = rem_f.identity = false;
        rem_b.index = std::move(in.backward);
        rem_f.index = std::move(in.forward);
      } else {
        rem_inputs.push_back(std::move(in));
      }
    }
  }

  // Output -> region chain (through the exchange when present).
  Chain to_region_b, to_region_f;
  to_region_b.identity = rem_b.identity && x_b.identity;
  if (!to_region_b.identity) {
    if (x_b.identity) {
      to_region_b.index = std::move(rem_b.index);
    } else if (rem_b.identity) {
      to_region_b.index = std::move(x_b.index);
    } else {
      to_region_b.index = ComposeBackward(rem_b.index, x_b.index);
    }
  }
  if (want_f) {
    to_region_f.identity = rem_f.identity && x_f.identity;
    if (!to_region_f.identity) {
      if (x_f.identity) {
        to_region_f.index = std::move(rem_f.index);
      } else if (rem_f.identity) {
        to_region_f.index = std::move(x_f.index);
      } else {
        to_region_f.index = ComposeForward(x_f.index, rem_f.index);
      }
    }
  }

  // ---- final lineage emission: original reachable scans, ascending id ----
  if (capture) {
    // Prep-output chains, one per broadcast operator build (composed once,
    // shared by every scan under that build).
    std::vector<LineageIndex> prep_b(preps.size()), prep_f(preps.size());
    std::unordered_map<int, std::pair<int, int>> prep_scan_pos;
    for (size_t j = 0; j < preps.size(); ++j) {
      for (size_t u = 0; u < preps[j].scan_ids.size(); ++u) {
        prep_scan_pos[preps[j].scan_ids[u]] = {static_cast<int>(j),
                                               static_cast<int>(u)};
      }
    }
    for (size_t tp = 0; tp < tscans.size(); ++tp) {
      if (tscans[tp].kind != TemplateScan::Kind::kPrep) continue;
      const size_t j = static_cast<size_t>(tscans[tp].prep);
      prep_b[j] = ComposeBackwardChain(to_region_b,
                                       gather_backward(static_cast<int>(tp)));
      if (want_f) {
        prep_f[j] = ComposeForwardChain(gather_forward(static_cast<int>(tp)),
                                        to_region_f);
      }
    }
    std::unordered_map<int, int> tpos_of;
    for (size_t tp = 0; tp < tscans.size(); ++tp) {
      if (tscans[tp].kind != TemplateScan::Kind::kPrep) {
        tpos_of[tscans[tp].orig_id] = static_cast<int>(tp);
      }
    }
    size_t next_rem = 0;
    for (size_t id = 0; id < n; ++id) {
      const PlanNode& node = plan.node(static_cast<int>(id));
      if (!reachable[id] || node.kind != PlanOpKind::kScan) continue;
      TableLineage& tl =
          out->lineage.AddInput(node.label, node.table);
      LineageIndex b, f;
      auto tit = tpos_of.find(static_cast<int>(id));
      auto pit = prep_scan_pos.find(static_cast<int>(id));
      if (tit != tpos_of.end()) {
        b = ComposeBackwardChain(to_region_b, gather_backward(tit->second));
        if (want_f) {
          f = ComposeForwardChain(gather_forward(tit->second), to_region_f);
        }
      } else if (pit != prep_scan_pos.end()) {
        const auto [j, u] = pit->second;
        const TableLineage& pin =
            preps[static_cast<size_t>(j)].result.lineage.input(
                static_cast<size_t>(u));
        b = ComposeBackward(prep_b[static_cast<size_t>(j)], pin.backward);
        if (want_f) {
          f = ComposeForward(pin.forward, prep_f[static_cast<size_t>(j)]);
        }
      } else {
        SMOKE_CHECK(next_rem < rem_inputs.size());
        b = std::move(rem_inputs[next_rem].backward);
        f = std::move(rem_inputs[next_rem].forward);
        ++next_rem;
      }
      if (!opts.WantsTable(node.label)) continue;  // entry stays empty
      if (opts.capture_backward) tl.backward = std::move(b);
      if (opts.capture_forward) tl.forward = std::move(f);
    }
    out->lineage.set_output_cardinality(out->output_cardinality);
    out->lineage.Freeze();
  }

  return Status::OK();
}

}  // namespace smoke
