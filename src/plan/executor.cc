#include "plan/executor.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "lineage/compose.h"
#include "optimizer/optimizer.h"
#include "optimizer/schema_infer.h"
#include "plan/scheduler.h"

namespace smoke {

namespace {

/// Root-to-node accumulated lineage during composition: maps root output
/// positions to this node's output positions (backward) and vice versa
/// (forward). The root itself is the identity.
struct PathLineage {
  LineageIndex backward;
  LineageIndex forward;
  bool identity = false;
  bool reached = false;
};

/// Replaces an identity accumulator with explicit 1:1 arrays (needed when a
/// DAG merge combines an identity path with a materialized one).
void MaterializeIdentity(PathLineage* acc, size_t cardinality) {
  if (!acc->identity) return;
  acc->backward = IdentityIndex(cardinality);
  acc->forward = IdentityIndex(cardinality);
  acc->identity = false;
}

bool IsLogicOrPhys(CaptureMode m) {
  return m == CaptureMode::kLogicRid || m == CaptureMode::kLogicTup ||
         m == CaptureMode::kLogicIdx || m == CaptureMode::kPhysMem ||
         m == CaptureMode::kPhysBdb;
}

/// Composes the per-operator fragments of an executed plan into one
/// end-to-end index pair per reachable scan. Consumes (moves) the fragments
/// out of `results`. Factored out of ExecutePlan so plan-level deferred
/// finalization (PlanResult::FinalizeDeferred) can run it at think-time.
void ComposePlanLineage(const LogicalPlan& plan,
                        const std::vector<uint8_t>& reachable,
                        size_t root_rows,
                        std::vector<OperatorResult>* results,
                        QueryLineage* out_lineage) {
  const size_t n = plan.num_nodes();
  const int root = plan.root();

  // Walk parents before children (descending id is reverse-topological);
  // acc[id] accumulates the root-to-node composition, merging when a DAG
  // node is reached through multiple paths. Fragments are consumed (moved)
  // — each (parent, child-slot) fragment is used exactly once.
  std::vector<PathLineage> acc(n);
  acc[static_cast<size_t>(root)].identity = true;
  acc[static_cast<size_t>(root)].reached = true;

  for (int id = root; id >= 0; --id) {
    const size_t uid = static_cast<size_t>(id);
    if (!reachable[uid] || !acc[uid].reached) continue;
    const PlanNode& node = plan.node(id);
    if (node.kind == PlanOpKind::kScan) continue;

    for (size_t k = 0; k < node.children.size(); ++k) {
      const size_t child = static_cast<size_t>(node.children[k]);
      LineageFragment frag;
      if (k < (*results)[uid].fragments.size()) {
        frag = std::move((*results)[uid].fragments[k]);
      }

      PathLineage down;
      down.reached = true;
      if (frag.identity) {
        // Pipelined 1:1 operator: pass the accumulator through. The last
        // child slot is the accumulator's final use, so it can be moved.
        down.identity = acc[uid].identity;
        if (k + 1 == node.children.size()) {
          down.backward = std::move(acc[uid].backward);
          down.forward = std::move(acc[uid].forward);
        } else {
          down.backward = acc[uid].backward;
          down.forward = acc[uid].forward;
        }
      } else if (acc[uid].identity) {
        down.backward = std::move(frag.backward);
        down.forward = std::move(frag.forward);
      } else {
        down.backward = ComposeBackward(acc[uid].backward, frag.backward);
        down.forward = ComposeForward(frag.forward, acc[uid].forward);
      }

      PathLineage& dst = acc[child];
      if (!dst.reached) {
        dst = std::move(down);
      } else {
        MaterializeIdentity(&dst, root_rows);
        MaterializeIdentity(&down, root_rows);
        MergeBackwardInto(&dst.backward, std::move(down.backward));
        MergeForwardInto(&dst.forward, std::move(down.forward));
      }
    }
  }

  // Emit one lineage input per reachable scan, in scan-creation order.
  for (size_t id = 0; id < n; ++id) {
    const PlanNode& node = plan.node(static_cast<int>(id));
    if (!reachable[id] || node.kind != PlanOpKind::kScan) continue;
    TableLineage& tl = out_lineage->AddInput(node.label, node.table);
    PathLineage& a = acc[id];
    if (!a.reached) continue;
    MaterializeIdentity(&a, root_rows);
    tl.backward = std::move(a.backward);
    tl.forward = NarrowForward(std::move(a.forward));
  }
  // Frozen exact: a retained result keeps no capture growth slack. A root
  // operator's fragments (an SPJA block's included) arrive here as built,
  // so this is also where their forwards are narrowed.
  out_lineage->ShrinkToFit();
}

/// Moves the root operator's SPJA block artifacts into the plan result.
/// The block's query borrows the block's inputs, so it is kept only when
/// every input is a base-table scan: intermediate outputs die with the
/// execution.
void TakeRootArtifacts(const LogicalPlan& plan, OperatorResult* root,
                       PlanResult* out) {
  if (root->spja_artifacts == nullptr) return;
  static_cast<SPJAArtifacts&>(*out) = std::move(*root->spja_artifacts);
  for (int c : plan.node(plan.root()).children) {
    if (plan.node(c).kind != PlanOpKind::kScan) out->query = SPJAQuery();
  }
}

}  // namespace

Status ExecutePlan(const LogicalPlan& plan, const CaptureOptions& opts,
                   PlanResult* out) {
  if (plan.root() < 0) return Status::InvalidArgument("plan has no root");

  // Default path: rewrite the plan (src/optimizer/) and execute the
  // optimized copy. Rewrites preserve results and lineage bit-identically;
  // opts.optimize = false is the ablation escape hatch. Either way the plan
  // is validated (schema inference) before any kernel runs, so a malformed
  // plan fails with a Status rather than inside an operator.
  if (!opts.optimize) {
    std::vector<Schema> schemas;
    SMOKE_RETURN_NOT_OK(InferPlanSchemas(plan, &schemas));
    return internal::ExecuteValidatedPlan(plan, opts, out);
  }
  LogicalPlan optimized;
  PlanExplain explain;
  SMOKE_RETURN_NOT_OK(OptimizePlan(plan, &optimized, &explain));
  CaptureOptions inner = opts;
  inner.optimize = false;  // retained state records the optimized plan
  SMOKE_RETURN_NOT_OK(internal::ExecuteValidatedPlan(optimized, inner, out));
  out->explain = std::move(explain);
  return Status::OK();
}

namespace internal {

Status ExecuteValidatedPlan(const LogicalPlan& plan,
                            const CaptureOptions& opts, PlanResult* out) {
  if (plan.root() < 0) return Status::InvalidArgument("plan has no root");
  if (opts.retain_refresh_state && opts.defer_plan_finalize) {
    return Status::InvalidArgument(
        "retain_refresh_state needs finalized capture and composed indexes; "
        "it cannot be combined with defer_plan_finalize");
  }

  const size_t n = plan.num_nodes();
  const int root = plan.root();

  // ---- reachability from the root ----
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

  // Logic / physical baseline modes do not compose across operators: they
  // are only accepted on single-block plans (every reachable node is either
  // the root or one of its scan children).
  if (IsLogicOrPhys(opts.mode)) {
    if (opts.mode == CaptureMode::kPhysMem ||
        opts.mode == CaptureMode::kPhysBdb) {
      return Status::Unsupported(
          "physical baselines are exercised per-operator, not via plans");
    }
    for (size_t id = 0; id < n; ++id) {
      if (!reachable[id] || static_cast<int>(id) == root) continue;
      if (plan.node(static_cast<int>(id)).kind != PlanOpKind::kScan) {
        return Status::Unsupported(
            "logic capture modes require a single-block plan");
      }
    }
  }

  // ---- relation pruning: which subtrees lead to traced base relations ----
  const bool prune = !opts.only_relations.empty();
  std::vector<uint8_t> traced(n, 1);
  if (prune) {
    for (size_t id = 0; id < n; ++id) {  // children precede parents
      const PlanNode& node = plan.node(static_cast<int>(id));
      if (node.kind == PlanOpKind::kScan) {
        traced[id] = opts.WantsTable(node.label);
      } else {
        traced[id] = 0;
        for (int c : node.children) traced[id] |= traced[static_cast<size_t>(c)];
      }
    }
  }

  // ---- execute reachable operators in topological (id) order ----
  // One worker pool for the whole plan: every morsel-parallel operator
  // reuses its threads.
  std::unique_ptr<MorselScheduler> pool;
  if (opts.num_threads > 1 && opts.scheduler == nullptr) {
    pool = std::make_unique<MorselScheduler>(opts.num_threads);
  }

  std::vector<OperatorResult> results(n);
  std::vector<int> pending_group_bys;
  for (size_t id = 0; id < n; ++id) {
    if (!reachable[id]) continue;
    const PlanNode& node = plan.node(static_cast<int>(id));
    if (node.kind == PlanOpKind::kScan) continue;

    std::vector<OperatorInput> inputs;
    inputs.reserve(node.children.size());
    for (int c : node.children) {
      const PlanNode& child = plan.node(c);
      OperatorInput in;
      if (child.kind == PlanOpKind::kScan) {
        in.table = child.table;
      } else {
        in.table = &results[static_cast<size_t>(c)].output;
      }
      in.name = child.label;
      inputs.push_back(std::move(in));
    }

    CaptureOptions node_opts = opts;
    if (pool != nullptr) node_opts.scheduler = pool.get();
    if (prune) {
      node_opts.only_relations.clear();
      if (!traced[id]) {
        // No traced relation below this node: skip capture entirely.
        node_opts.mode = CaptureMode::kNone;
      } else if (node.kind == PlanOpKind::kSpjaBlock) {
        // The fused block prunes internally by base-relation name.
        node_opts.only_relations = opts.only_relations;
      } else {
        bool all = true;
        for (int c : node.children) all &= traced[static_cast<size_t>(c)];
        if (!all) {
          for (int c : node.children) {
            if (traced[static_cast<size_t>(c)]) {
              node_opts.only_relations.push_back(plan.node(c).label);
            }
          }
        }
      }
    }

    std::unique_ptr<Operator> op = MakeOperator(node);
    SMOKE_CHECK(op != nullptr);
    SMOKE_RETURN_NOT_OK(op->Execute(inputs, node_opts, &results[id]));
    if (results[id].deferred_group_by != nullptr) {
      pending_group_bys.push_back(static_cast<int>(id));
    }
  }

  OperatorResult& root_result = results[static_cast<size_t>(root)];
  if (plan.node(root).kind == PlanOpKind::kScan) {
    return Status::InvalidArgument("plan root must be an operator, not a scan");
  }
  const size_t root_rows = root_result.output.num_rows();
  TakeRootArtifacts(plan, &root_result, out);

  // ---- plan-level defer scheduling: stash, finalize at think-time ----
  if (!pending_group_bys.empty()) {
    out->output = std::move(root_result.output);
    out->output_cardinality = root_result.output_cardinality;
    out->lineage.set_output_cardinality(out->output_cardinality);
    auto st = std::make_unique<PlanDeferredState>();
    st->plan = plan;
    st->opts = opts;
    st->opts.scheduler = nullptr;  // the plan-scoped pool dies with us
    st->results = std::move(results);
    st->reachable = std::move(reachable);
    st->pending_group_bys = std::move(pending_group_bys);
    out->deferred = std::move(st);
    return Status::OK();
  }

  // ---- compose per-operator fragments into end-to-end indexes ----
  if (opts.mode != CaptureMode::kNone) {
    ComposePlanLineage(plan, reachable, root_rows, &results, &out->lineage);
  }

  out->output = std::move(root_result.output);
  out->output_cardinality = root_result.output_cardinality;
  out->lineage.set_output_cardinality(out->output_cardinality);

  // ---- retain refresh state (src/refresh/) ----
  // After composition the fragments are consumed but every non-root
  // intermediate output (and retained group-by handle) is still in
  // `results`; the delta pass replays only the appended rid range through
  // this state.
  if (opts.retain_refresh_state) {
    auto rs = std::make_shared<PlanRefreshState>();
    rs->plan = plan;
    rs->opts = opts;
    rs->opts.scheduler = nullptr;  // the plan-scoped pool dies with us
    rs->results = std::move(results);
    rs->reachable = std::move(reachable);
    out->refresh = std::move(rs);
  }
  return Status::OK();
}

}  // namespace internal

Status PlanResult::FinalizeDeferred() {
  if (deferred == nullptr) return Status::OK();
  PlanDeferredState& st = *deferred;

  // Zγ per pending node: re-probe the retained hash table against the
  // operator's input batch (still alive inside st.results / base tables).
  for (int id : st.pending_group_bys) {
    OperatorResult& r = st.results[static_cast<size_t>(id)];
    SMOKE_CHECK(r.deferred_group_by != nullptr);
    const PlanNode& node = st.plan.node(id);
    const int child = node.children[0];
    const PlanNode& child_node = st.plan.node(child);
    const Table* input = child_node.kind == PlanOpKind::kScan
                             ? child_node.table
                             : &st.results[static_cast<size_t>(child)].output;
    GroupByResult* gb = r.deferred_group_by.get();
    FinalizeDeferredGroupBy(gb, *input, st.opts);
    LineageFragment& frag = r.fragments[0];
    TableLineage& tl = gb->lineage.mutable_input(0);
    frag.backward = std::move(tl.backward);
    frag.forward = std::move(tl.forward);
    r.deferred_group_by.reset();
  }

  if (st.opts.mode != CaptureMode::kNone) {
    ComposePlanLineage(st.plan, st.reachable, output.num_rows(), &st.results,
                       &lineage);
  }
  lineage.set_output_cardinality(output_cardinality);
  deferred.reset();
  return Status::OK();
}

}  // namespace smoke
