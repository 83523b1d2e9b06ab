#include "optimizer/optimizer.h"

#include <algorithm>

namespace smoke {
namespace optimizer {

Status WorkPlan::FromPlan(const LogicalPlan& plan, WorkPlan* out) {
  out->nodes.clear();
  out->keys.clear();
  out->nodes.reserve(plan.num_nodes());
  out->keys.reserve(plan.num_nodes());
  for (size_t id = 0; id < plan.num_nodes(); ++id) {
    out->nodes.push_back(plan.node(static_cast<int>(id)));
    out->keys.push_back(static_cast<double>(id));
  }
  out->root = plan.root();
  return out->Refresh();
}

Status WorkPlan::Refresh() {
  size_t n = nodes.size();
  parents.assign(n, 0);
  reachable.assign(n, 0);
  if (root < 0 || static_cast<size_t>(root) >= n) {
    return Status::InvalidArgument("optimizer workspace has no root");
  }
  // Reachability + parent counts from the root. Node ids are acyclic by
  // construction (rules only rewire toward existing subtrees or freshly
  // inserted nodes whose children predate them), so a plain DFS suffices.
  std::vector<int> stack = {root};
  reachable[static_cast<size_t>(root)] = 1;
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    for (int c : nodes[static_cast<size_t>(id)].children) {
      if (c < 0 || static_cast<size_t>(c) >= n) {
        return Status::InvalidArgument(
            "node '" + nodes[static_cast<size_t>(id)].label +
            "' has invalid child id " + std::to_string(c));
      }
      ++parents[static_cast<size_t>(c)];
      if (!reachable[static_cast<size_t>(c)]) {
        reachable[static_cast<size_t>(c)] = 1;
        stack.push_back(c);
      }
    }
  }
  return InferNodeSchemas(nodes, root, &schemas);
}

int WorkPlan::Insert(PlanNode node, double lo, double hi) {
  int id = static_cast<int>(nodes.size());
  if (node.label.empty()) {
    node.label = std::string(PlanOpKindName(node.kind)) + "#opt" +
                 std::to_string(id);
  }
  nodes.push_back(std::move(node));
  keys.push_back((lo + hi) / 2.0);
  return id;
}

Status WorkPlan::Freeze(LogicalPlan* out) const {
  std::vector<int> order;
  order.reserve(nodes.size());
  for (size_t id = 0; id < nodes.size(); ++id) {
    if (reachable[id]) order.push_back(static_cast<int>(id));
  }
  // Stable topological re-numbering: fractional keys slot inserted nodes
  // between their neighbors, and the id tiebreak keeps the original nodes —
  // in particular the scans, whose relative order is the lineage-input
  // order — in their original sequence.
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    double ka = keys[static_cast<size_t>(a)];
    double kb = keys[static_cast<size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  });
  std::vector<int> remap(nodes.size(), -1);
  PlanBuilder builder;
  for (int id : order) {
    PlanNode copy = nodes[static_cast<size_t>(id)];
    for (int& c : copy.children) {
      if (c < 0 || static_cast<size_t>(c) >= nodes.size() ||
          remap[static_cast<size_t>(c)] < 0) {
        return Status::InvalidArgument("optimizer produced a non-topological plan at "
                                "node '" + copy.label + "'");
      }
      c = remap[static_cast<size_t>(c)];
    }
    remap[static_cast<size_t>(id)] = builder.AddNode(std::move(copy));
  }
  if (remap[static_cast<size_t>(root)] < 0) {
    return Status::InvalidArgument("optimizer lost the plan root");
  }
  return builder.Build(remap[static_cast<size_t>(root)], out);
}

}  // namespace optimizer

Status OptimizePlan(const LogicalPlan& plan, LogicalPlan* out,
                    PlanExplain* explain) {
  // Fixed-point bounds: no rule set needs more than a few passes; the
  // application cap is a runaway-rule backstop.
  constexpr int kMaxPasses = 10;
  constexpr int kMaxApplications = 200;
  optimizer::WorkPlan wp;
  // Refresh doubles as plan validation: malformed plans (bad column refs,
  // type mismatches, unbindable expressions) are rejected here with a clear
  // Status instead of failing mid-execution.
  Status st = optimizer::WorkPlan::FromPlan(plan, &wp);
  if (!st.ok()) return st;

  std::vector<std::unique_ptr<optimizer::Rule>> rules =
      optimizer::MakeRules();
  int applications = 0;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (const std::unique_ptr<optimizer::Rule>& rule : rules) {
      // Scan bottom-up (ascending id ≈ children first) and restart after
      // every application: rewrites invalidate schemas and parent counts.
      bool applied = true;
      while (applied) {
        applied = false;
        for (size_t id = 0; id < wp.nodes.size(); ++id) {
          if (!wp.reachable[id]) continue;
          std::string detail;
          if (!rule->Apply(&wp, static_cast<int>(id), &detail)) continue;
          if (explain != nullptr) {
            explain->rules.push_back(
                {rule->name(), wp.nodes[id].label, detail});
          }
          st = wp.Refresh();
          if (!st.ok()) {
            return Status::InvalidArgument(std::string("optimizer rule '") +
                                    rule->name() + "' broke the plan: " +
                                    st.message());
          }
          applied = true;
          changed = true;
          if (++applications >= kMaxApplications) {
            applied = false;
            changed = false;
          }
          break;
        }
      }
      if (applications >= kMaxApplications) break;
    }
    if (!changed) break;
  }

  st = wp.Freeze(out);
  if (!st.ok()) return st;
  if (explain != nullptr) {
    explain->optimized = true;
    explain->plan_text = out->ToString();
  }
  return Status::OK();
}

}  // namespace smoke
