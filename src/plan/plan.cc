#include "plan/plan.h"

#include "optimizer/schema_infer.h"

namespace smoke {

const char kTraceRidColumn[] = "__trace_rid";

int TraceRidColumnOf(const Table& t) { return t.ColumnIndex(kTraceRidColumn); }

Schema TraceOutputSchema(const Schema& endpoint) {
  std::vector<Field> fields = endpoint.fields();
  for (Field& f : fields) {
    if (f.name != kTraceRidColumn) continue;
    for (int k = 1;; ++k) {
      std::string name = std::string(kTraceRidColumn) + "_" + std::to_string(k);
      if (endpoint.IndexOf(name) < 0) {
        f.name = std::move(name);
        break;
      }
    }
  }
  fields.push_back({kTraceRidColumn, DataType::kInt64});
  return Schema(std::move(fields));
}

const char* PlanOpKindName(PlanOpKind k) {
  switch (k) {
    case PlanOpKind::kScan:      return "scan";
    case PlanOpKind::kSelect:    return "select";
    case PlanOpKind::kProject:   return "project";
    case PlanOpKind::kHashJoin:  return "hash_join";
    case PlanOpKind::kGroupBy:   return "group_by";
    case PlanOpKind::kSetOp:     return "set_op";
    case PlanOpKind::kSpjaBlock: return "spja_block";
    case PlanOpKind::kTrace:     return "trace";
    case PlanOpKind::kDerive:    return "derive";
  }
  return "?";
}

namespace {

void AppendNodeString(const LogicalPlan& plan, int id, int depth,
                      std::string* out) {
  const PlanNode& n = plan.node(id);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += PlanOpKindName(n.kind);
  *out += " [";
  *out += n.label;
  if (n.kind == PlanOpKind::kTrace && n.trace.aggregate) *out += " +aggregate";
  *out += "] #" + std::to_string(id) + "\n";
  for (int c : n.children) AppendNodeString(plan, c, depth + 1, out);
}

}  // namespace

std::string LogicalPlan::ToString() const {
  std::string s;
  if (root_ >= 0) AppendNodeString(*this, root_, 0, &s);
  return s;
}

int PlanBuilder::Add(PlanNode node) {
  int id = static_cast<int>(nodes_.size());
  if (node.label.empty()) {
    node.label = std::string(PlanOpKindName(node.kind)) + "#" +
                 std::to_string(id);
  }
  nodes_.push_back(std::move(node));
  return id;
}

int PlanBuilder::Scan(const Table* table, std::string name) {
  PlanNode n;
  n.kind = PlanOpKind::kScan;
  n.table = table;
  n.label = std::move(name);
  return Add(std::move(n));
}

int PlanBuilder::Select(int child, std::vector<Predicate> predicates) {
  PlanNode n;
  n.kind = PlanOpKind::kSelect;
  n.children = {child};
  n.predicates = std::move(predicates);
  return Add(std::move(n));
}

int PlanBuilder::Project(int child, std::vector<int> columns) {
  PlanNode n;
  n.kind = PlanOpKind::kProject;
  n.children = {child};
  n.columns = std::move(columns);
  return Add(std::move(n));
}

int PlanBuilder::Project(int child, std::vector<std::string> columns) {
  PlanNode n;
  n.kind = PlanOpKind::kProject;
  n.children = {child};
  n.column_names = std::move(columns);
  return Add(std::move(n));
}

int PlanBuilder::HashJoin(int build, int probe, JoinSpec spec) {
  PlanNode n;
  n.kind = PlanOpKind::kHashJoin;
  n.children = {build, probe};
  n.join = spec;
  return Add(std::move(n));
}

int PlanBuilder::GroupBy(int child, GroupBySpec spec) {
  PlanNode n;
  n.kind = PlanOpKind::kGroupBy;
  n.children = {child};
  n.group_by = std::move(spec);
  return Add(std::move(n));
}

int PlanBuilder::SetOp(SetOpKind kind, int left, int right,
                       std::vector<int> cols) {
  PlanNode n;
  n.kind = PlanOpKind::kSetOp;
  n.children = {left, right};
  n.set_op = kind;
  n.set_cols = std::move(cols);
  return Add(std::move(n));
}

int PlanBuilder::SetOp(SetOpKind kind, int left, int right,
                       std::vector<std::string> cols) {
  PlanNode n;
  n.kind = PlanOpKind::kSetOp;
  n.children = {left, right};
  n.set_op = kind;
  n.set_col_names = std::move(cols);
  return Add(std::move(n));
}

int PlanBuilder::SpjaBlock(SPJAQuery query, SPJAPushdown pushdown) {
  PlanNode n;
  n.kind = PlanOpKind::kSpjaBlock;
  n.children.push_back(Scan(query.fact, query.fact_name));
  for (const SPJADim& d : query.dims) {
    n.children.push_back(Scan(d.table, d.name));
  }
  n.spja = std::move(query);
  n.pushdown = std::move(pushdown);
  return Add(std::move(n));
}

int PlanBuilder::Trace(int child, TraceSpec spec) {
  PlanNode n;
  n.kind = PlanOpKind::kTrace;
  n.children = {child};
  n.trace = std::move(spec);
  return Add(std::move(n));
}

int PlanBuilder::Derive(int child, std::vector<GroupExpr> exprs) {
  PlanNode n;
  n.kind = PlanOpKind::kDerive;
  n.children = {child};
  n.derives = std::move(exprs);
  return Add(std::move(n));
}

void PlanBuilder::SetLabel(int node, std::string label) {
  SMOKE_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  nodes_[static_cast<size_t>(node)].label = std::move(label);
}

namespace {

bool PredicateHasNames(const Predicate& p) {
  return !p.col_name.empty() || !p.rhs_col_name.empty();
}

bool ExprHasNames(const ScalarExpr& e) {
  if (!e.col_name.empty()) return true;
  if (e.pred != nullptr && PredicateHasNames(*e.pred)) return true;
  if (e.left != nullptr && ExprHasNames(*e.left)) return true;
  if (e.right != nullptr && ExprHasNames(*e.right)) return true;
  return false;
}

Status ResolveColumn(const Schema& schema, const std::string& name,
                     const std::string& label, int* out) {
  const int i = schema.IndexOf(name);
  if (i < 0) {
    return Status::InvalidArgument("node '" + label + "': unknown column '" +
                                   name + "' (input schema: " +
                                   schema.ToString() + ")");
  }
  *out = i;
  return Status::OK();
}

Status ResolvePredicate(const Schema& schema, const std::string& label,
                        Predicate* p) {
  const bool rhs_named = !p->rhs_col_name.empty();
  if (!p->col_name.empty()) {
    SMOKE_RETURN_NOT_OK(ResolveColumn(schema, p->col_name, label, &p->col));
    p->col_name.clear();
  }
  if (rhs_named) {
    SMOKE_RETURN_NOT_OK(
        ResolveColumn(schema, p->rhs_col_name, label, &p->rhs_col));
    p->rhs_col_name.clear();
    // Name-based column-to-column compares take the compared type from the
    // schema (the index-based factory spells it out).
    if (p->col >= 0 && static_cast<size_t>(p->col) < schema.num_fields()) {
      p->type = schema.field(static_cast<size_t>(p->col)).type;
    }
  }
  return Status::OK();
}

Status ResolveExpr(const Schema& schema, const std::string& label,
                   ScalarExpr* e) {
  if (!e->col_name.empty()) {
    SMOKE_RETURN_NOT_OK(ResolveColumn(schema, e->col_name, label, &e->col));
    e->col_name.clear();
  }
  if (e->pred != nullptr) {
    SMOKE_RETURN_NOT_OK(ResolvePredicate(schema, label, e->pred.get()));
  }
  if (e->left != nullptr) {
    SMOKE_RETURN_NOT_OK(ResolveExpr(schema, label, e->left.get()));
  }
  if (e->right != nullptr) {
    SMOKE_RETURN_NOT_OK(ResolveExpr(schema, label, e->right.get()));
  }
  return Status::OK();
}

bool AnyPredicateNames(const std::vector<Predicate>& preds) {
  for (const Predicate& p : preds) {
    if (PredicateHasNames(p)) return true;
  }
  return false;
}

}  // namespace

Status PlanBuilder::ResolveNames() {
  // Child schemas are inferred on demand, one subtree at a time: nodes are
  // visited in ascending id order and children precede parents, so a
  // child's subtree is always fully resolved before its schema is needed.
  auto schema_of = [this](int child, std::vector<Schema>* all,
                          const Schema** out) -> Status {
    SMOKE_RETURN_NOT_OK(InferNodeSchemas(nodes_, child, all));
    *out = &(*all)[static_cast<size_t>(child)];
    return Status::OK();
  };
  for (size_t id = 0; id < nodes_.size(); ++id) {
    PlanNode& n = nodes_[id];
    std::vector<Schema> all;
    const Schema* schema = nullptr;
    switch (n.kind) {
      case PlanOpKind::kSelect: {
        if (n.children.size() != 1 || !AnyPredicateNames(n.predicates)) break;
        SMOKE_RETURN_NOT_OK(schema_of(n.children[0], &all, &schema));
        for (Predicate& p : n.predicates) {
          SMOKE_RETURN_NOT_OK(ResolvePredicate(*schema, n.label, &p));
        }
        break;
      }
      case PlanOpKind::kProject: {
        if (n.children.size() != 1 || n.column_names.empty()) break;
        SMOKE_RETURN_NOT_OK(schema_of(n.children[0], &all, &schema));
        for (const std::string& name : n.column_names) {
          int col = -1;
          SMOKE_RETURN_NOT_OK(ResolveColumn(*schema, name, n.label, &col));
          n.columns.push_back(col);
        }
        n.column_names.clear();
        break;
      }
      case PlanOpKind::kHashJoin: {
        if (n.children.size() != 2) break;
        if (!n.join.left_key_name.empty()) {
          SMOKE_RETURN_NOT_OK(schema_of(n.children[0], &all, &schema));
          SMOKE_RETURN_NOT_OK(ResolveColumn(*schema, n.join.left_key_name,
                                            n.label, &n.join.left_key));
          n.join.left_key_name.clear();
        }
        if (!n.join.right_key_name.empty()) {
          SMOKE_RETURN_NOT_OK(schema_of(n.children[1], &all, &schema));
          SMOKE_RETURN_NOT_OK(ResolveColumn(*schema, n.join.right_key_name,
                                            n.label, &n.join.right_key));
          n.join.right_key_name.clear();
        }
        break;
      }
      case PlanOpKind::kGroupBy: {
        bool agg_names = false;
        for (const AggSpec& a : n.group_by.aggs) {
          agg_names |= ExprHasNames(a.expr);
        }
        if (n.children.size() != 1 ||
            (n.group_by.key_names.empty() && !agg_names)) {
          break;
        }
        SMOKE_RETURN_NOT_OK(schema_of(n.children[0], &all, &schema));
        for (const std::string& name : n.group_by.key_names) {
          int col = -1;
          SMOKE_RETURN_NOT_OK(ResolveColumn(*schema, name, n.label, &col));
          n.group_by.keys.push_back(col);
        }
        n.group_by.key_names.clear();
        for (AggSpec& a : n.group_by.aggs) {
          SMOKE_RETURN_NOT_OK(ResolveExpr(*schema, n.label, &a.expr));
        }
        break;
      }
      case PlanOpKind::kSetOp: {
        if (n.children.size() != 2 || n.set_col_names.empty()) break;
        SMOKE_RETURN_NOT_OK(schema_of(n.children[0], &all, &schema));
        for (const std::string& name : n.set_col_names) {
          int col = -1;
          SMOKE_RETURN_NOT_OK(ResolveColumn(*schema, name, n.label, &col));
          n.set_cols.push_back(col);
        }
        n.set_col_names.clear();
        break;
      }
      case PlanOpKind::kDerive: {
        bool any = false;
        for (const GroupExpr& g : n.derives) any |= !g.col_name.empty();
        if (n.children.size() != 1 || !any) break;
        SMOKE_RETURN_NOT_OK(schema_of(n.children[0], &all, &schema));
        for (GroupExpr& g : n.derives) {
          if (g.col_name.empty()) continue;
          SMOKE_RETURN_NOT_OK(
              ResolveColumn(*schema, g.col_name, n.label, &g.col));
          g.col_name.clear();
        }
        break;
      }
      case PlanOpKind::kTrace: {
        if (!AnyPredicateNames(n.trace.filters)) break;
        // Trace filters apply to the *final endpoint* rows (after any fused
        // hops), so they resolve against that table's schema, not the
        // child's output.
        const Table* endpoint = nullptr;
        if (!n.trace.fused_hops.empty()) {
          endpoint = n.trace.fused_hops.back().endpoint;
        } else if (n.trace.endpoint != nullptr) {
          endpoint = n.trace.endpoint;
        } else if (n.children.size() == 1 &&
                   nodes_[static_cast<size_t>(n.children[0])].kind ==
                       PlanOpKind::kScan) {
          endpoint = nodes_[static_cast<size_t>(n.children[0])].table;
        }
        if (endpoint == nullptr) {
          return Status::InvalidArgument(
              "trace '" + n.label +
              "': name-based filters need a resolvable endpoint table");
        }
        for (Predicate& p : n.trace.filters) {
          SMOKE_RETURN_NOT_OK(
              ResolvePredicate(endpoint->schema(), n.label, &p));
        }
        break;
      }
      case PlanOpKind::kSpjaBlock: {
        // Block predicates read base tables directly: fact filters and the
        // selection push-down resolve against the fact schema, each
        // dimension's filters against that dimension's.
        if (n.spja.fact != nullptr) {
          for (auto* preds : {&n.spja.fact_filters, &n.pushdown.sel_fact}) {
            for (Predicate& p : *preds) {
              SMOKE_RETURN_NOT_OK(
                  ResolvePredicate(n.spja.fact->schema(), n.label, &p));
            }
          }
        }
        for (SPJADim& d : n.spja.dims) {
          if (d.table == nullptr) continue;
          for (Predicate& p : d.filters) {
            SMOKE_RETURN_NOT_OK(
                ResolvePredicate(d.table->schema(), n.label, &p));
          }
        }
        break;
      }
      case PlanOpKind::kScan:
        break;
    }
  }
  return Status::OK();
}

Status PlanBuilder::Build(int root, LogicalPlan* out) {
  if (root < 0 || static_cast<size_t>(root) >= nodes_.size()) {
    return Status::InvalidArgument("plan root id out of range");
  }
  SMOKE_RETURN_NOT_OK(ResolveNames());
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const PlanNode& n = nodes_[id];
    size_t arity = 0;
    switch (n.kind) {
      case PlanOpKind::kScan:      arity = 0; break;
      case PlanOpKind::kSelect:
      case PlanOpKind::kProject:
      case PlanOpKind::kGroupBy:
      case PlanOpKind::kTrace:
      case PlanOpKind::kDerive:    arity = 1; break;
      case PlanOpKind::kHashJoin:
      case PlanOpKind::kSetOp:     arity = 2; break;
      case PlanOpKind::kSpjaBlock: arity = 1 + n.spja.dims.size(); break;
    }
    if (n.children.size() != arity) {
      return Status::InvalidArgument(
          "node '" + n.label + "' expects " + std::to_string(arity) +
          " children, got " + std::to_string(n.children.size()));
    }
    for (int c : n.children) {
      // Children precede parents by construction; reject hand-crafted cycles.
      if (c < 0 || static_cast<size_t>(c) >= id) {
        return Status::InvalidArgument(
            "node '" + n.label + "' has invalid child id " +
            std::to_string(c));
      }
    }
    if (n.kind == PlanOpKind::kScan && n.table == nullptr) {
      return Status::InvalidArgument("scan '" + n.label + "' has no table");
    }
    if (n.kind == PlanOpKind::kSpjaBlock && n.spja.fact == nullptr) {
      return Status::InvalidArgument("SPJA block '" + n.label +
                                     "' has no fact table");
    }
    if (n.kind == PlanOpKind::kProject && n.columns.empty()) {
      // A zero-column output has no row count, which would collapse the
      // identity lineage to cardinality 0.
      return Status::InvalidArgument("projection '" + n.label +
                                     "' keeps no columns");
    }
    if (n.kind == PlanOpKind::kHashJoin && !n.join.materialize_output) {
      return Status::InvalidArgument(
          "plan joins must materialize their output (node '" + n.label +
          "')");
    }
    if (n.kind == PlanOpKind::kTrace) {
      if (n.trace.lineage == nullptr) {
        return Status::InvalidArgument("trace '" + n.label +
                                       "' has no source lineage");
      }
      if (n.trace.seeds_from_child) {
        if (n.trace.endpoint == nullptr) {
          return Status::InvalidArgument(
              "chained trace '" + n.label + "' must name its endpoint table");
        }
        const PlanNode& child = nodes_[static_cast<size_t>(n.children[0])];
        if (child.kind != PlanOpKind::kTrace) {
          return Status::InvalidArgument(
              "chained trace '" + n.label + "' needs a trace child");
        }
      }
      if (n.trace.skip_index != nullptr &&
          (n.trace.direction != TraceDirection::kBackward ||
           n.trace.seeds_from_child)) {
        return Status::InvalidArgument(
            "data-skipping traces must be backward and non-chained (node '" +
            n.label + "')");
      }
      for (const TraceHopSpec& h : n.trace.fused_hops) {
        if (h.lineage == nullptr || h.endpoint == nullptr) {
          return Status::InvalidArgument(
              "fused trace hop in '" + n.label +
              "' needs lineage and an endpoint table");
        }
      }
    }
    if (n.kind != PlanOpKind::kSpjaBlock && !n.pushdown.empty()) {
      return Status::InvalidArgument(
          "capture push-downs attach to SPJA blocks only (node '" + n.label +
          "')");
    }
    if (n.kind == PlanOpKind::kDerive && n.derives.empty()) {
      return Status::InvalidArgument("derive '" + n.label +
                                     "' has no expressions");
    }
  }
  out->nodes_ = std::move(nodes_);
  out->root_ = root;
  nodes_.clear();
  return Status::OK();
}

}  // namespace smoke
