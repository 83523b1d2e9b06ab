#include "optimizer/schema_infer.h"

#include <string>

namespace smoke {

namespace {

Status OutOfRange(const std::string& what, int col,
                  const std::string& label) {
  return Status::InvalidArgument(what + " column " + std::to_string(col) +
                                 " out of range in node '" + label + "'");
}

/// Walks a ScalarExpr, checking every column reference against `schema`
/// (CompiledExpr binds int64/float64 payloads and aborts on strings).
Status ValidateScalarExpr(const Schema& schema, const ScalarExpr& e,
                          const std::string& label) {
  switch (e.op) {
    case ScalarExpr::Op::kCol: {
      if (e.col < 0 || static_cast<size_t>(e.col) >= schema.num_fields()) {
        return OutOfRange("aggregate expression", e.col, label);
      }
      DataType t = schema.field(static_cast<size_t>(e.col)).type;
      if (t != DataType::kInt64 && t != DataType::kFloat64) {
        return Status::InvalidArgument(
            "aggregate expression reads non-numeric column " +
            std::to_string(e.col) + " in node '" + label + "'");
      }
      return Status::OK();
    }
    case ScalarExpr::Op::kConst:
      return Status::OK();
    case ScalarExpr::Op::kIndicator:
      if (e.pred == nullptr) {
        return Status::InvalidArgument("indicator without predicate in '" +
                                       label + "'");
      }
      return ValidatePredicate(schema, *e.pred, label);
    case ScalarExpr::Op::kSqrt:
      if (e.left == nullptr) {
        return Status::InvalidArgument("sqrt without operand in '" + label +
                                       "'");
      }
      return ValidateScalarExpr(schema, *e.left, label);
    default: {
      if (e.left == nullptr || e.right == nullptr) {
        return Status::InvalidArgument(
            "binary scalar expression missing an operand in '" + label + "'");
      }
      SMOKE_RETURN_NOT_OK(ValidateScalarExpr(schema, *e.left, label));
      return ValidateScalarExpr(schema, *e.right, label);
    }
  }
}

Status ValidateGroupExpr(const Schema& schema, const GroupExpr& g,
                         const std::string& label) {
  if (g.col < 0 || static_cast<size_t>(g.col) >= schema.num_fields()) {
    return OutOfRange("derive expression '" + g.name + "'", g.col, label);
  }
  DataType t = schema.field(static_cast<size_t>(g.col)).type;
  DataType want = g.kind == GroupExpr::Kind::kScale100 ? DataType::kFloat64
                                                       : DataType::kInt64;
  if (t != want) {
    return Status::InvalidArgument(
        "derive expression '" + g.name + "' needs a " +
        std::string(DataTypeName(want)) + " column in node '" + label + "'");
  }
  return Status::OK();
}

/// Output field of aggregate `spec` — mirrors AggLayout::OutputField
/// without needing a bound table.
Field AggOutputField(const AggSpec& spec) {
  return Field{spec.name, spec.op == AggOp::kCount ? DataType::kInt64
                                                   : DataType::kFloat64};
}

struct Inference {
  const std::vector<PlanNode>& nodes;
  std::vector<Schema>& schemas;
  std::vector<uint8_t> done;

  Inference(const std::vector<PlanNode>& n, std::vector<Schema>& s)
      : nodes(n), schemas(s), done(n.size(), 0) {}

  Status Infer(int id);
  Status InferNode(const PlanNode& n, Schema* out);
};

Status Inference::Infer(int id) {
  if (id < 0 || static_cast<size_t>(id) >= nodes.size()) {
    return Status::InvalidArgument("plan node id " + std::to_string(id) +
                                   " out of range");
  }
  if (done[static_cast<size_t>(id)]) return Status::OK();
  // Mark before recursing: LogicalPlan ids are acyclic by construction, so
  // this only guards against hand-built cycles reaching us pre-validation.
  done[static_cast<size_t>(id)] = 1;
  for (int c : nodes[static_cast<size_t>(id)].children) {
    SMOKE_RETURN_NOT_OK(Infer(c));
  }
  return InferNode(nodes[static_cast<size_t>(id)],
                   &schemas[static_cast<size_t>(id)]);
}

Status Inference::InferNode(const PlanNode& n, Schema* out) {
  auto child_schema = [this, &n](size_t k) -> const Schema& {
    return schemas[static_cast<size_t>(n.children[k])];
  };
  switch (n.kind) {
    case PlanOpKind::kScan: {
      if (n.table == nullptr) {
        return Status::InvalidArgument("scan '" + n.label + "' has no table");
      }
      *out = n.table->schema();
      return Status::OK();
    }
    case PlanOpKind::kSelect: {
      const Schema& in = child_schema(0);
      for (const Predicate& p : n.predicates) {
        SMOKE_RETURN_NOT_OK(ValidatePredicate(in, p, n.label));
      }
      *out = in;
      return Status::OK();
    }
    case PlanOpKind::kProject: {
      const Schema& in = child_schema(0);
      Schema s;
      for (int c : n.columns) {
        if (c < 0 || static_cast<size_t>(c) >= in.num_fields()) {
          return OutOfRange("projection", c, n.label);
        }
        s.AddField(in.field(static_cast<size_t>(c)).name,
                   in.field(static_cast<size_t>(c)).type);
      }
      *out = std::move(s);
      return Status::OK();
    }
    case PlanOpKind::kHashJoin: {
      const Schema& left = child_schema(0);
      const Schema& right = child_schema(1);
      if (n.join.left_key < 0 ||
          static_cast<size_t>(n.join.left_key) >= left.num_fields()) {
        return OutOfRange("join left key", n.join.left_key, n.label);
      }
      if (n.join.right_key < 0 ||
          static_cast<size_t>(n.join.right_key) >= right.num_fields()) {
        return OutOfRange("join right key", n.join.right_key, n.label);
      }
      if (left.field(static_cast<size_t>(n.join.left_key)).type !=
              DataType::kInt64 ||
          right.field(static_cast<size_t>(n.join.right_key)).type !=
              DataType::kInt64) {
        return Status::InvalidArgument("hash-join keys must be int64 columns"
                                       " (node '" + n.label + "')");
      }
      // Mirrors hash_join.cc OutputSchema for the Smoke modes (the logic
      // modes' prov columns are a single-block concern).
      Schema s = left;
      const std::string& right_name =
          nodes[static_cast<size_t>(n.children[1])].label;
      for (const Field& f : right.fields()) {
        std::string name = f.name;
        if (s.IndexOf(name) >= 0) name = right_name + "_" + name;
        s.AddField(std::move(name), f.type);
      }
      *out = std::move(s);
      return Status::OK();
    }
    case PlanOpKind::kGroupBy: {
      const Schema& in = child_schema(0);
      Schema s;
      for (int k : n.group_by.keys) {
        if (k < 0 || static_cast<size_t>(k) >= in.num_fields()) {
          return OutOfRange("group-by key", k, n.label);
        }
        s.AddField(in.field(static_cast<size_t>(k)).name,
                   in.field(static_cast<size_t>(k)).type);
      }
      for (const AggSpec& a : n.group_by.aggs) {
        SMOKE_RETURN_NOT_OK(ValidateScalarExpr(in, a.expr, n.label));
        Field f = AggOutputField(a);
        s.AddField(f.name, f.type);
      }
      *out = std::move(s);
      return Status::OK();
    }
    case PlanOpKind::kSetOp: {
      const Schema& a = child_schema(0);
      const Schema& b = child_schema(1);
      if (n.set_op == SetOpKind::kBagUnion) {
        if (a.num_fields() != b.num_fields()) {
          return Status::InvalidArgument(
              "bag union children have different widths (node '" + n.label +
              "')");
        }
        for (size_t i = 0; i < a.num_fields(); ++i) {
          if (a.field(i).type != b.field(i).type) {
            return Status::InvalidArgument(
                "bag union column " + std::to_string(i) +
                " types differ (node '" + n.label + "')");
          }
        }
        *out = a;
        return Status::OK();
      }
      Schema s;
      for (int c : n.set_cols) {
        if (c < 0 || static_cast<size_t>(c) >= a.num_fields() ||
            static_cast<size_t>(c) >= b.num_fields()) {
          return OutOfRange("set-op", c, n.label);
        }
        if (a.field(static_cast<size_t>(c)).type !=
            b.field(static_cast<size_t>(c)).type) {
          return Status::InvalidArgument(
              "set-op column " + std::to_string(c) + " types differ (node '" +
              n.label + "')");
        }
        s.AddField(a.field(static_cast<size_t>(c)).name,
                   a.field(static_cast<size_t>(c)).type);
      }
      *out = std::move(s);
      return Status::OK();
    }
    case PlanOpKind::kSpjaBlock: {
      // Children are [fact, dim...] scans; mirror the γagg output schema in
      // spja.cc. ColRef/filters validate against the child schemas.
      const Schema& fact = child_schema(0);
      auto ref_schema = [&](int table) -> const Schema& {
        return table == ColRef::kFact
                   ? fact
                   : schemas[static_cast<size_t>(
                         n.children[1 + static_cast<size_t>(table)])];
      };
      for (const Predicate& p : n.spja.fact_filters) {
        SMOKE_RETURN_NOT_OK(ValidatePredicate(fact, p, n.label));
      }
      // Push-downs read fact columns only.
      for (const Predicate& p : n.pushdown.sel_fact) {
        SMOKE_RETURN_NOT_OK(ValidatePredicate(fact, p, n.label));
      }
      for (const std::vector<int>* cols :
           {&n.pushdown.skip_cols, &n.pushdown.cube_cols}) {
        for (int c : *cols) {
          if (c < 0 || static_cast<size_t>(c) >= fact.num_fields()) {
            return OutOfRange("push-down", c, n.label);
          }
        }
      }
      for (const AggSpec& a : n.pushdown.cube_aggs) {
        SMOKE_RETURN_NOT_OK(ValidateScalarExpr(fact, a.expr, n.label));
      }
      if (n.spja.dims.size() > SPJAQuery::kMaxDims) {
        return Status::InvalidArgument(
            "SPJA block joins " + std::to_string(n.spja.dims.size()) +
            " dimensions, more than " + std::to_string(SPJAQuery::kMaxDims) +
            " (node '" + n.label + "')");
      }
      // The fused kernel hashes pk and fk values as int64.
      auto require_int = [&n](const Schema& ts, int col, const char* what) {
        if (ts.field(static_cast<size_t>(col)).type == DataType::kInt64) {
          return Status::OK();
        }
        return Status::InvalidArgument(std::string(what) + " column " +
                                       std::to_string(col) +
                                       " is not int64 (node '" + n.label +
                                       "')");
      };
      for (size_t j = 0; j < n.spja.dims.size(); ++j) {
        const SPJADim& d = n.spja.dims[j];
        const Schema& ds = child_schema(1 + j);
        if (d.pk_col < 0 ||
            static_cast<size_t>(d.pk_col) >= ds.num_fields()) {
          return OutOfRange("dimension pk", d.pk_col, n.label);
        }
        SMOKE_RETURN_NOT_OK(require_int(ds, d.pk_col, "dimension pk"));
        if (d.fk.table < ColRef::kFact ||
            d.fk.table >= static_cast<int>(j)) {
          return Status::InvalidArgument(
              "dimension fk references table " + std::to_string(d.fk.table) +
              " not joined yet (node '" + n.label + "')");
        }
        const Schema& fs = ref_schema(d.fk.table);
        if (d.fk.col < 0 || static_cast<size_t>(d.fk.col) >= fs.num_fields()) {
          return OutOfRange("dimension fk", d.fk.col, n.label);
        }
        SMOKE_RETURN_NOT_OK(require_int(fs, d.fk.col, "dimension fk"));
        for (const Predicate& p : d.filters) {
          SMOKE_RETURN_NOT_OK(ValidatePredicate(ds, p, n.label));
        }
      }
      Schema s;
      for (const ColRef& ref : n.spja.group_by) {
        if (ref.table < ColRef::kFact ||
            ref.table >= static_cast<int>(n.spja.dims.size())) {
          return Status::InvalidArgument(
              "group-by column references unknown table (node '" + n.label +
              "')");
        }
        const Schema& ts = ref_schema(ref.table);
        if (ref.col < 0 || static_cast<size_t>(ref.col) >= ts.num_fields()) {
          return OutOfRange("group-by", ref.col, n.label);
        }
        std::string name = ts.field(static_cast<size_t>(ref.col)).name;
        if (s.IndexOf(name) >= 0) name += "_2";
        s.AddField(std::move(name), ts.field(static_cast<size_t>(ref.col)).type);
      }
      for (const AggSpec& a : n.spja.aggs) {
        if (a.src < 0 || a.src > static_cast<int>(n.spja.dims.size())) {
          return Status::InvalidArgument(
              "aggregate source table out of range (node '" + n.label + "')");
        }
        const Schema& ts =
            a.src == 0 ? fact : child_schema(static_cast<size_t>(a.src));
        SMOKE_RETURN_NOT_OK(ValidateScalarExpr(ts, a.expr, n.label));
        Field f = AggOutputField(a);
        s.AddField(f.name, f.type);
      }
      *out = std::move(s);
      return Status::OK();
    }
    case PlanOpKind::kTrace: {
      // Endpoint: the final fused hop's endpoint if any; else the named
      // endpoint for chained hops; else the child's output.
      Schema s;
      if (!n.trace.fused_hops.empty()) {
        s = n.trace.fused_hops.back().endpoint->schema();
      } else if (n.trace.seeds_from_child) {
        s = n.trace.endpoint->schema();
      } else {
        s = child_schema(0);
      }
      for (const Predicate& p : n.trace.filters) {
        SMOKE_RETURN_NOT_OK(ValidatePredicate(s, p, n.label));
      }
      if (!n.trace.aggregate) {
        *out = TraceOutputSchema(s);
        return Status::OK();
      }
      // Fused aggregate: keys and aggregates read the endpoint columns.
      Schema agg;
      for (const GroupExpr& g : n.trace.group_keys) {
        SMOKE_RETURN_NOT_OK(ValidateGroupExpr(s, g, n.label));
        agg.AddField(g.name, DataType::kInt64);
      }
      for (const AggSpec& a : n.trace.aggs) {
        SMOKE_RETURN_NOT_OK(ValidateScalarExpr(s, a.expr, n.label));
        Field f = AggOutputField(a);
        agg.AddField(f.name, f.type);
      }
      *out = std::move(agg);
      return Status::OK();
    }
    case PlanOpKind::kDerive: {
      const Schema& in = child_schema(0);
      Schema s = in;
      for (const GroupExpr& g : n.derives) {
        SMOKE_RETURN_NOT_OK(ValidateGroupExpr(in, g, n.label));
        s.AddField(g.name, DataType::kInt64);
      }
      *out = std::move(s);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown plan node kind");
}

}  // namespace

Status ValidatePredicate(const Schema& schema, const Predicate& p,
                         const std::string& node_label) {
  if (p.col < 0 || static_cast<size_t>(p.col) >= schema.num_fields()) {
    return OutOfRange("predicate", p.col, node_label);
  }
  if (schema.field(static_cast<size_t>(p.col)).type != p.type) {
    return Status::InvalidArgument(
        "predicate on column " + std::to_string(p.col) +
        " has type " + DataTypeName(p.type) + " but the column is " +
        DataTypeName(schema.field(static_cast<size_t>(p.col)).type) +
        " (node '" + node_label + "')");
  }
  if (p.rhs_col >= 0) {
    if (static_cast<size_t>(p.rhs_col) >= schema.num_fields()) {
      return OutOfRange("predicate rhs", p.rhs_col, node_label);
    }
    if (schema.field(static_cast<size_t>(p.rhs_col)).type != p.type) {
      return Status::InvalidArgument(
          "predicate rhs column " + std::to_string(p.rhs_col) +
          " type mismatch (node '" + node_label + "')");
    }
  }
  return Status::OK();
}

Status InferNodeSchemas(const std::vector<PlanNode>& nodes, int root,
                        std::vector<Schema>* out) {
  out->assign(nodes.size(), Schema{});
  if (nodes.empty()) return Status::OK();
  Inference inf(nodes, *out);
  return inf.Infer(root);
}

Status InferPlanSchemas(const LogicalPlan& plan, std::vector<Schema>* out) {
  std::vector<PlanNode> nodes;
  nodes.reserve(plan.num_nodes());
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    nodes.push_back(plan.node(static_cast<int>(i)));
  }
  return InferNodeSchemas(nodes, plan.root(), out);
}

}  // namespace smoke
