// The shipping rewrite rules (optimizer/optimizer.h). Every rule preserves
// results AND lineage bit-identically; the non-obvious safety arguments are
// documented on the rule that needs them.
//
// Workspace conventions:
//  - "swap" rules (select push-down through a 1:1 operator) exchange the
//    contents of parent and child in place — both ids survive, order keys
//    stay put, and keys[child] < keys[parent] keeps the order topological.
//  - "content-copy" rules (merge, fusion, elision) overwrite the parent
//    with child-derived content and orphan the child; they require
//    SingleParent(child) (a shared child would otherwise execute twice) and
//    inherit the child's order key so Freeze() keeps the node — in
//    particular a scan, whose position is the lineage-input order — in the
//    child's original position.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "optimizer/optimizer.h"

namespace smoke {
namespace optimizer {
namespace {

// ---------------------------------------------------------------------------
// fold_constants
// ---------------------------------------------------------------------------

/// Folds constant subtrees of `e` bottom-up. Uses the same plain double
/// arithmetic CompiledExpr::Eval runs per row, so the folded constant is the
/// bit-identical IEEE value the unfolded expression would produce.
void FoldExpr(ScalarExpr* e, int* folds) {
  if (e->left) FoldExpr(e->left.get(), folds);
  if (e->right) FoldExpr(e->right.get(), folds);
  const bool lc = e->left && e->left->op == ScalarExpr::Op::kConst;
  const bool rc = e->right && e->right->op == ScalarExpr::Op::kConst;
  double v = 0;
  switch (e->op) {
    case ScalarExpr::Op::kAdd:
      if (!lc || !rc) return;
      v = e->left->constant + e->right->constant;
      break;
    case ScalarExpr::Op::kSub:
      if (!lc || !rc) return;
      v = e->left->constant - e->right->constant;
      break;
    case ScalarExpr::Op::kMul:
      if (!lc || !rc) return;
      v = e->left->constant * e->right->constant;
      break;
    case ScalarExpr::Op::kDiv:
      if (!lc || !rc) return;
      v = e->left->constant / e->right->constant;
      break;
    case ScalarExpr::Op::kSqrt:
      if (!lc) return;
      v = std::sqrt(e->left->constant);
      break;
    default:
      return;
  }
  *e = ScalarExpr::Const(v);
  ++*folds;
}

class FoldConstantsRule : public Rule {
 public:
  const char* name() const override { return "fold_constants"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    PlanNode& n = wp->nodes[static_cast<size_t>(id)];
    int folds = 0;
    if (n.kind == PlanOpKind::kGroupBy) {
      for (AggSpec& a : n.group_by.aggs) FoldExpr(&a.expr, &folds);
    } else if (n.kind == PlanOpKind::kSpjaBlock) {
      for (AggSpec& a : n.spja.aggs) FoldExpr(&a.expr, &folds);
      for (AggSpec& a : n.pushdown.cube_aggs) FoldExpr(&a.expr, &folds);
    } else {
      return false;
    }
    if (folds == 0) return false;
    *detail = "folded " + std::to_string(folds) + " constant subexpression(s)";
    return true;
  }
};

// ---------------------------------------------------------------------------
// Select push-down family
// ---------------------------------------------------------------------------

/// Shared guard for rules that rewrite a Select over its single child.
bool SelectOver(const WorkPlan& wp, int id, PlanOpKind child_kind,
                bool need_preds = true) {
  const PlanNode& n = wp.node(id);
  if (n.kind != PlanOpKind::kSelect) return false;
  if (need_preds && n.predicates.empty()) return false;
  int cid = n.children[0];
  return wp.node(cid).kind == child_kind && wp.SingleParent(cid);
}

/// Select(Select(x, P1), P2) -> Select(x, P1 ++ P2). PredicateList is a
/// conjunction, so the passing rid set — and therefore the select fragment —
/// is unchanged.
class MergeSelectsRule : public Rule {
 public:
  const char* name() const override { return "merge_selects"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    if (!SelectOver(*wp, id, PlanOpKind::kSelect, /*need_preds=*/false)) {
      return false;
    }
    const int cid = wp->node(id).children[0];
    const size_t added = wp->node(id).predicates.size();
    PlanNode merged = wp->nodes[static_cast<size_t>(cid)];
    merged.predicates.insert(merged.predicates.end(),
                             wp->node(id).predicates.begin(),
                             wp->node(id).predicates.end());
    wp->nodes[static_cast<size_t>(id)] = std::move(merged);
    wp->keys[static_cast<size_t>(id)] = wp->keys[static_cast<size_t>(cid)];
    *detail = "merged " + std::to_string(added) +
              " predicate(s) into the child select";
    return true;
  }
};

/// Select(Project(x)) -> Project(Select(x)), remapping predicate columns
/// through the projection. The projection is a pure 1:1 pipeline (identity
/// fragment, passed through by the composer), so the select fragment —
/// computed over the same rid space either way — composes identically.
class PushSelectThroughProjectRule : public Rule {
 public:
  const char* name() const override { return "push_select_through_project"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    if (!SelectOver(*wp, id, PlanOpKind::kProject)) return false;
    const int cid = wp->node(id).children[0];
    PlanNode sel = wp->nodes[static_cast<size_t>(id)];
    PlanNode proj = wp->nodes[static_cast<size_t>(cid)];
    for (Predicate& p : sel.predicates) {
      p.col = proj.columns[static_cast<size_t>(p.col)];
      if (p.rhs_col >= 0) {
        p.rhs_col = proj.columns[static_cast<size_t>(p.rhs_col)];
      }
    }
    sel.children = proj.children;
    proj.children = {cid};
    *detail = "pushed " + std::to_string(sel.predicates.size()) +
              " predicate(s) below '" + proj.label + "'";
    wp->nodes[static_cast<size_t>(cid)] = std::move(sel);
    wp->nodes[static_cast<size_t>(id)] = std::move(proj);
    return true;
  }
};

/// Select(Derive(x)) -> Derive(Select(x)) when every predicate reads only
/// the pass-through columns (derived keys land after them). Derive is a 1:1
/// identity-fragment pipeline like Project.
class PushSelectThroughDeriveRule : public Rule {
 public:
  const char* name() const override { return "push_select_through_derive"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    if (!SelectOver(*wp, id, PlanOpKind::kDerive)) return false;
    const int cid = wp->node(id).children[0];
    const int base_width = static_cast<int>(
        wp->schema(wp->node(cid).children[0]).num_fields());
    for (const Predicate& p : wp->node(id).predicates) {
      if (p.col >= base_width || p.rhs_col >= base_width) return false;
    }
    PlanNode sel = wp->nodes[static_cast<size_t>(id)];
    PlanNode der = wp->nodes[static_cast<size_t>(cid)];
    sel.children = der.children;
    der.children = {cid};
    *detail = "pushed " + std::to_string(sel.predicates.size()) +
              " predicate(s) below '" + der.label + "'";
    wp->nodes[static_cast<size_t>(cid)] = std::move(sel);
    wp->nodes[static_cast<size_t>(id)] = std::move(der);
    return true;
  }
};

/// Select(SetOp(a, b)) -> SetOp(Select(a), Select(b)).
///
/// Safe for all five kinds: non-bag-union outputs are the set_cols
/// projection, so predicates see only the comparison columns — every row of
/// a value class passes or fails together, which keeps the output rows, the
/// per-class contributor lists (backward lineage), and the witness pairing
/// (bag intersect) unchanged. Bag union is row-wise 1:1, so filtering the
/// concatenation and concatenating the filtered inputs are the same thing.
class PushSelectThroughSetOpRule : public Rule {
 public:
  const char* name() const override { return "push_select_through_set_op"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    if (!SelectOver(*wp, id, PlanOpKind::kSetOp)) return false;
    const int cid = wp->node(id).children[0];
    const PlanNode so = wp->nodes[static_cast<size_t>(cid)];  // copy
    const int a = so.children[0];
    const int b = so.children[1];

    std::vector<Predicate> preds = wp->node(id).predicates;
    if (so.set_op != SetOpKind::kBagUnion) {
      for (Predicate& p : preds) {
        p.col = so.set_cols[static_cast<size_t>(p.col)];
        if (p.rhs_col >= 0) {
          p.rhs_col = so.set_cols[static_cast<size_t>(p.rhs_col)];
        }
      }
    }

    const double key_a = wp->keys[static_cast<size_t>(a)];
    const double key_b = wp->keys[static_cast<size_t>(b)];
    const double key_so = wp->keys[static_cast<size_t>(cid)];

    PlanNode sel_a;
    sel_a.kind = PlanOpKind::kSelect;
    sel_a.children = {a};
    sel_a.predicates = preds;
    const int ida = wp->Insert(std::move(sel_a), key_a, key_so);

    PlanNode sel_b;
    sel_b.kind = PlanOpKind::kSelect;
    sel_b.children = {b};
    sel_b.predicates = std::move(preds);
    const int idb = wp->Insert(std::move(sel_b), key_b, key_so);

    PlanNode top = so;
    top.children = {ida, idb};
    *detail = "pushed " + std::to_string(wp->node(id).predicates.size()) +
              " predicate(s) into both set-op inputs";
    wp->nodes[static_cast<size_t>(id)] = std::move(top);
    wp->keys[static_cast<size_t>(id)] = key_so;
    return true;
  }
};

/// Select(Trace(x)) -> Trace(x) with the predicates appended to the trace's
/// filters. The trace evaluates them per traced rid against the endpoint
/// *before* materialization and composes the select-equivalent fragment
/// through the same lineage/compose calls the literal Select would — the
/// rows never copied are exactly the rows the Select would drop.
class PushSelectIntoTraceRule : public Rule {
 public:
  const char* name() const override { return "push_select_into_trace"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    if (!SelectOver(*wp, id, PlanOpKind::kTrace)) return false;
    const int cid = wp->node(id).children[0];
    // A fused aggregate's output is the group-by's, not endpoint rows.
    if (wp->node(cid).trace.aggregate) return false;
    // Trace output = endpoint columns ++ kTraceRidColumn; filters may read
    // only the endpoint columns.
    const int endpoint_width =
        static_cast<int>(wp->schema(cid).num_fields()) - 1;
    for (const Predicate& p : wp->node(id).predicates) {
      if (p.col >= endpoint_width || p.rhs_col >= endpoint_width) return false;
    }
    const size_t added = wp->node(id).predicates.size();
    PlanNode tr = wp->nodes[static_cast<size_t>(cid)];
    tr.trace.filters.insert(tr.trace.filters.end(),
                            wp->node(id).predicates.begin(),
                            wp->node(id).predicates.end());
    wp->nodes[static_cast<size_t>(id)] = std::move(tr);
    wp->keys[static_cast<size_t>(id)] = wp->keys[static_cast<size_t>(cid)];
    *detail = "pushed " + std::to_string(added) +
              " predicate(s) into the trace index scan";
    return true;
  }
};

// ---------------------------------------------------------------------------
// fuse_trace_hops
// ---------------------------------------------------------------------------

/// Trace_outer(Trace_inner(x)) -> Trace_inner carrying the outer hop as a
/// TraceHopSpec. The fused operator runs the identical per-hop index probes
/// and composes the per-hop fragments through the same ComposeBackward /
/// ComposeForward calls the executor would make for the literal chain — it
/// only skips materializing the intermediate endpoints. Requires the inner
/// trace to have no filters yet: fused filters run after all hops, so
/// hopping after an inner filter must not be folded past it.
class FuseTraceHopsRule : public Rule {
 public:
  const char* name() const override { return "fuse_trace_hops"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    const PlanNode& n = wp->node(id);
    if (n.kind != PlanOpKind::kTrace || !n.trace.seeds_from_child) {
      return false;
    }
    const int cid = n.children[0];
    const PlanNode& child = wp->node(cid);
    if (child.kind != PlanOpKind::kTrace || !wp->SingleParent(cid)) {
      return false;
    }
    if (!child.trace.filters.empty() || child.trace.aggregate) return false;

    PlanNode fused = wp->nodes[static_cast<size_t>(cid)];
    TraceHopSpec hop;
    hop.lineage = n.trace.lineage;
    hop.relation = n.trace.relation;
    hop.direction = n.trace.direction;
    hop.endpoint = n.trace.endpoint;
    hop.dedup = n.trace.dedup;
    fused.trace.fused_hops.push_back(std::move(hop));
    fused.trace.fused_hops.insert(fused.trace.fused_hops.end(),
                                  n.trace.fused_hops.begin(),
                                  n.trace.fused_hops.end());
    fused.trace.filters = n.trace.filters;
    fused.label = n.label;
    *detail = std::string("fused ") +
              (n.trace.direction == TraceDirection::kForward ? "forward"
                                                             : "backward") +
              " hop over '" + n.trace.relation + "' into '" + child.label +
              "'";
    wp->nodes[static_cast<size_t>(id)] = std::move(fused);
    wp->keys[static_cast<size_t>(id)] = wp->keys[static_cast<size_t>(cid)];
    return true;
  }
};

// ---------------------------------------------------------------------------
// fuse_trace_aggregate
// ---------------------------------------------------------------------------

/// True when every column `e` reads (indicator predicates included) lies
/// below `width`.
bool ExprReadsBelow(const ScalarExpr& e, int width) {
  if (e.op == ScalarExpr::Op::kCol && e.col >= width) return false;
  if (e.pred != nullptr && (e.pred->col >= width || e.pred->rhs_col >= width)) {
    return false;
  }
  if (e.left != nullptr && !ExprReadsBelow(*e.left, width)) return false;
  return e.right == nullptr || ExprReadsBelow(*e.right, width);
}

/// GroupBy(Trace(x)) and GroupBy(Derive(Trace(x))) -> Trace(x) carrying the
/// group keys and aggregates. The fused operator groups the (filtered) rid
/// stream straight against the endpoint columns instead of copying endpoint
/// rows for the group-by to read. Each group-by key becomes an int64
/// GroupExpr over the endpoint: a Derive output column maps to its
/// expression, an int64 endpoint column to GroupExpr::Raw under the
/// column's name — so the output schema is the literal group-by's. Slots
/// follow first-encounter order over the same rid stream, aggregates fold
/// through the same AggLayout arithmetic, and the operator composes the
/// group-by fragment through the same lineage/compose calls the executor
/// would make, so results and lineage are bit-identical. Keys or
/// aggregates that read the rid column and non-int64 raw keys are left
/// alone.
class FuseTraceAggregateRule : public Rule {
 public:
  const char* name() const override { return "fuse_trace_aggregate"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    const PlanNode& n = wp->node(id);
    if (n.kind != PlanOpKind::kGroupBy) return false;
    int cid = n.children[0];
    if (!wp->SingleParent(cid)) return false;
    const PlanNode* derive = nullptr;
    if (wp->node(cid).kind == PlanOpKind::kDerive) {
      derive = &wp->node(cid);
      cid = derive->children[0];
      if (!wp->SingleParent(cid)) return false;
    }
    const PlanNode& trace = wp->node(cid);
    if (trace.kind != PlanOpKind::kTrace || trace.trace.aggregate) {
      return false;
    }
    // Trace output = endpoint columns ++ kTraceRidColumn (++ derived keys).
    const Schema& ts = wp->schema(cid);
    const int endpoint_width = static_cast<int>(ts.num_fields()) - 1;
    std::vector<GroupExpr> keys;
    for (int k : n.group_by.keys) {
      if (k < endpoint_width) {
        if (ts.field(static_cast<size_t>(k)).type != DataType::kInt64) {
          return false;
        }
        keys.push_back(
            GroupExpr::Raw(k, ts.field(static_cast<size_t>(k)).name));
      } else if (derive != nullptr && k > endpoint_width) {
        const GroupExpr& g =
            derive->derives[static_cast<size_t>(k - endpoint_width - 1)];
        if (g.col >= endpoint_width) return false;
        keys.push_back(g);
      } else {
        return false;
      }
    }
    for (const AggSpec& a : n.group_by.aggs) {
      if (!ExprReadsBelow(a.expr, endpoint_width)) return false;
    }

    PlanNode fused = trace;
    fused.trace.aggregate = true;
    fused.trace.group_keys = std::move(keys);
    fused.trace.aggs = n.group_by.aggs;
    *detail = "folded " + std::to_string(n.group_by.keys.size()) +
              " key(s) and " + std::to_string(n.group_by.aggs.size()) +
              " aggregate(s) into '" + trace.label + "'";
    wp->nodes[static_cast<size_t>(id)] = std::move(fused);
    wp->keys[static_cast<size_t>(id)] = wp->keys[static_cast<size_t>(cid)];
    return true;
  }
};

// ---------------------------------------------------------------------------
// Elision family
// ---------------------------------------------------------------------------

/// Project keeping [0, child_width) in order is a no-op with an identity
/// fragment the composer already passes through — removing it changes
/// nothing, bit for bit.
class ElideIdentityProjectRule : public Rule {
 public:
  const char* name() const override { return "elide_identity_project"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    const PlanNode& n = wp->node(id);
    if (n.kind != PlanOpKind::kProject) return false;
    const int cid = n.children[0];
    if (!wp->SingleParent(cid)) return false;
    const Schema& child_schema = wp->schema(cid);
    if (n.columns.size() != child_schema.num_fields()) return false;
    for (size_t i = 0; i < n.columns.size(); ++i) {
      if (n.columns[i] != static_cast<int>(i)) return false;
    }
    // The plan root must stay an operator.
    if (wp->node(cid).kind == PlanOpKind::kScan && id == wp->root) {
      return false;
    }
    *detail = "removed identity projection over '" + wp->node(cid).label + "'";
    wp->nodes[static_cast<size_t>(id)] = wp->nodes[static_cast<size_t>(cid)];
    wp->keys[static_cast<size_t>(id)] = wp->keys[static_cast<size_t>(cid)];
    return true;
  }
};

/// Project(Project(x)) -> Project(x) with composed column lists (both are
/// identity-fragment pipelines).
class MergeProjectsRule : public Rule {
 public:
  const char* name() const override { return "merge_projects"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    const PlanNode& n = wp->node(id);
    if (n.kind != PlanOpKind::kProject) return false;
    const int cid = n.children[0];
    const PlanNode& child = wp->node(cid);
    if (child.kind != PlanOpKind::kProject || !wp->SingleParent(cid)) {
      return false;
    }
    std::vector<int> composed;
    composed.reserve(n.columns.size());
    for (int c : n.columns) {
      composed.push_back(child.columns[static_cast<size_t>(c)]);
    }
    PlanNode merged = wp->nodes[static_cast<size_t>(cid)];
    merged.columns = std::move(composed);
    *detail = "merged adjacent projections";
    wp->nodes[static_cast<size_t>(id)] = std::move(merged);
    wp->keys[static_cast<size_t>(id)] = wp->keys[static_cast<size_t>(cid)];
    return true;
  }
};

/// Select with no predicates passes every row. Its fragment is an explicit
/// 1:1 identity, which is *not* flagged identity — composing through it
/// normalizes (sort+unique) raw forward lists when the select sits directly
/// under an identity accumulator. Kinds whose raw forward lists can be
/// unsorted or carry duplicates (SPJA dimension forwards, chained-trace
/// forwards) are therefore excluded on *both* sides: as the child (the
/// select normalizes the child's own fragment) and as the parent (the
/// select normalizes the accumulator the parent passes down raw). Eliding
/// there would change the emitted bits (not the semantics).
class ElideEmptySelectRule : public Rule {
 public:
  const char* name() const override { return "elide_empty_select"; }

  bool Apply(WorkPlan* wp, int id, std::string* detail) const override {
    const PlanNode& n = wp->node(id);
    if (n.kind != PlanOpKind::kSelect || !n.predicates.empty()) return false;
    const int cid = n.children[0];
    if (!wp->SingleParent(cid)) return false;
    const PlanOpKind ck = wp->node(cid).kind;
    if (ck == PlanOpKind::kSpjaBlock || ck == PlanOpKind::kTrace) {
      return false;
    }
    for (size_t p = 0; p < wp->nodes.size(); ++p) {
      if (!wp->reachable[p]) continue;
      const PlanNode& parent = wp->nodes[p];
      if (parent.kind != PlanOpKind::kSpjaBlock &&
          parent.kind != PlanOpKind::kTrace) {
        continue;
      }
      for (int c : parent.children) {
        if (c == id) return false;
      }
    }
    if (ck == PlanOpKind::kScan && id == wp->root) return false;
    *detail = "removed predicate-free select over '" + wp->node(cid).label +
              "'";
    wp->nodes[static_cast<size_t>(id)] = wp->nodes[static_cast<size_t>(cid)];
    wp->keys[static_cast<size_t>(id)] = wp->keys[static_cast<size_t>(cid)];
    return true;
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> MakeRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<FoldConstantsRule>());
  rules.push_back(std::make_unique<MergeSelectsRule>());
  rules.push_back(std::make_unique<PushSelectThroughProjectRule>());
  rules.push_back(std::make_unique<PushSelectThroughDeriveRule>());
  rules.push_back(std::make_unique<PushSelectThroughSetOpRule>());
  rules.push_back(std::make_unique<PushSelectIntoTraceRule>());
  rules.push_back(std::make_unique<FuseTraceHopsRule>());
  rules.push_back(std::make_unique<FuseTraceAggregateRule>());
  rules.push_back(std::make_unique<ElideIdentityProjectRule>());
  rules.push_back(std::make_unique<MergeProjectsRule>());
  rules.push_back(std::make_unique<ElideEmptySelectRule>());
  return rules;
}

}  // namespace optimizer
}  // namespace smoke
