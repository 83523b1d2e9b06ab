#include "engine/expr.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace smoke {

PredicateList::PredicateList(const Table& table, std::vector<Predicate> preds)
    : preds_(std::move(preds)) {
  bound_.reserve(preds_.size());
  for (auto& p : preds_) {
    // Name forms reaching a kernel directly (no PlanBuilder::Build pass)
    // resolve here; unknown names abort like Table::column(name).
    if (!p.col_name.empty()) {
      p.col = table.ColumnIndex(p.col_name);
      SMOKE_CHECK(p.col >= 0);
      p.col_name.clear();
    }
    if (!p.rhs_col_name.empty()) {
      p.rhs_col = table.ColumnIndex(p.rhs_col_name);
      SMOKE_CHECK(p.rhs_col >= 0);
      p.rhs_col_name.clear();
      p.type = table.schema().field(static_cast<size_t>(p.col)).type;
    }
    SMOKE_CHECK(p.col >= 0 &&
                static_cast<size_t>(p.col) < table.num_columns());
    Bound b;
    b.pred = &p;
    const Column& c = table.column(static_cast<size_t>(p.col));
    SMOKE_CHECK(c.type() == p.type);
    switch (c.type()) {
      case DataType::kInt64:   b.icol = c.ints().data(); break;
      case DataType::kFloat64: b.dcol = c.doubles().data(); break;
      case DataType::kString:  b.scol = c.strings().data(); break;
    }
    if (p.rhs_col >= 0) {
      const Column& c2 = table.column(static_cast<size_t>(p.rhs_col));
      SMOKE_CHECK(c2.type() == p.type);
      switch (c2.type()) {
        case DataType::kInt64:   b.icol2 = c2.ints().data(); break;
        case DataType::kFloat64: b.dcol2 = c2.doubles().data(); break;
        case DataType::kString:  b.scol2 = c2.strings().data(); break;
      }
    }
    bound_.push_back(b);
  }
}

namespace {

template <typename T>
bool Compare(CmpOp op, const T& lhs, const T& rhs) {
  switch (op) {
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return lhs <= rhs;
    case CmpOp::kGt: return lhs > rhs;
    case CmpOp::kGe: return lhs >= rhs;
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kNe: return lhs != rhs;
    case CmpOp::kIn: return false;  // handled by caller
  }
  return false;
}

}  // namespace

bool PredicateList::EvalOne(const Bound& b, rid_t rid) {
  const Predicate& p = *b.pred;
  if (p.rhs_col >= 0) {
    switch (p.type) {
      case DataType::kInt64:   return Compare(p.op, b.icol[rid], b.icol2[rid]);
      case DataType::kFloat64: return Compare(p.op, b.dcol[rid], b.dcol2[rid]);
      case DataType::kString:  return Compare(p.op, b.scol[rid], b.scol2[rid]);
    }
    return false;
  }
  if (p.op == CmpOp::kIn) {
    if (b.icol != nullptr) {
      int64_t v = b.icol[rid];
      return std::find(p.in_ints.begin(), p.in_ints.end(), v) !=
             p.in_ints.end();
    }
    const std::string& v = b.scol[rid];
    return std::find(p.in_strs.begin(), p.in_strs.end(), v) !=
           p.in_strs.end();
  }
  switch (p.type) {
    case DataType::kInt64:   return Compare(p.op, b.icol[rid], p.ival);
    case DataType::kFloat64: return Compare(p.op, b.dcol[rid], p.dval);
    case DataType::kString:  return Compare(p.op, b.scol[rid], p.sval);
  }
  return false;
}

namespace {

/// Keeps the candidates (positions into `rids`) whose row passes `test`,
/// compacting `cand` in place. Branch-free: selectivity does not matter.
template <typename Test>
void Refine(const rid_t* rids, std::vector<uint32_t>* cand, Test test) {
  size_t kept = 0;
  uint32_t* c = cand->data();
  for (size_t j = 0, n = cand->size(); j < n; ++j) {
    const uint32_t i = c[j];
    c[kept] = i;
    kept += test(rids[i]) ? 1 : 0;
  }
  cand->resize(kept);
}

template <typename T>
void RefineCompare(const rid_t* rids, std::vector<uint32_t>* cand,
                   const T* col, CmpOp op, T v) {
  auto by = [&](auto cmp) {
    Refine(rids, cand, [=](rid_t r) { return cmp(col[r], v); });
  };
  switch (op) {
    case CmpOp::kLt: return by(std::less<T>());
    case CmpOp::kLe: return by(std::less_equal<T>());
    case CmpOp::kGt: return by(std::greater<T>());
    case CmpOp::kGe: return by(std::greater_equal<T>());
    case CmpOp::kEq: return by(std::equal_to<T>());
    case CmpOp::kNe: return by(std::not_equal_to<T>());
    case CmpOp::kIn: return;  // handled by the caller
  }
}

}  // namespace

void PredicateList::SelectPositions(const rid_t* rids, size_t n,
                                    std::vector<uint32_t>* pos) const {
  pos->resize(n);
  for (size_t i = 0; i < n; ++i) (*pos)[i] = static_cast<uint32_t>(i);
  for (const Bound& b : bound_) {
    const Predicate& p = *b.pred;
    if (p.rhs_col < 0 && p.op != CmpOp::kIn && b.icol != nullptr) {
      RefineCompare(rids, pos, b.icol, p.op, p.ival);
    } else if (p.rhs_col < 0 && p.op != CmpOp::kIn && b.dcol != nullptr) {
      RefineCompare(rids, pos, b.dcol, p.op, p.dval);
    } else {
      Refine(rids, pos, [&b](rid_t r) { return EvalOne(b, r); });
    }
  }
}

ScalarExpr& ScalarExpr::operator=(const ScalarExpr& other) {
  if (this == &other) return *this;
  op = other.op;
  col = other.col;
  col_name = other.col_name;
  constant = other.constant;
  pred = other.pred ? std::make_unique<Predicate>(*other.pred) : nullptr;
  left = other.left ? std::make_unique<ScalarExpr>(*other.left) : nullptr;
  right = other.right ? std::make_unique<ScalarExpr>(*other.right) : nullptr;
  return *this;
}

ScalarExpr ScalarExpr::Col(int c) {
  ScalarExpr e;
  e.op = Op::kCol;
  e.col = c;
  return e;
}
ScalarExpr ScalarExpr::Col(std::string name) {
  ScalarExpr e;
  e.op = Op::kCol;
  e.col_name = std::move(name);
  return e;
}
ScalarExpr ScalarExpr::Const(double v) {
  ScalarExpr e;
  e.op = Op::kConst;
  e.constant = v;
  return e;
}
namespace {
ScalarExpr Binary(ScalarExpr::Op op, ScalarExpr a, ScalarExpr b) {
  ScalarExpr e;
  e.op = op;
  e.left = std::make_unique<ScalarExpr>(std::move(a));
  e.right = std::make_unique<ScalarExpr>(std::move(b));
  return e;
}
}  // namespace
ScalarExpr ScalarExpr::Add(ScalarExpr a, ScalarExpr b) {
  return Binary(Op::kAdd, std::move(a), std::move(b));
}
ScalarExpr ScalarExpr::Sub(ScalarExpr a, ScalarExpr b) {
  return Binary(Op::kSub, std::move(a), std::move(b));
}
ScalarExpr ScalarExpr::Mul(ScalarExpr a, ScalarExpr b) {
  return Binary(Op::kMul, std::move(a), std::move(b));
}
ScalarExpr ScalarExpr::Div(ScalarExpr a, ScalarExpr b) {
  return Binary(Op::kDiv, std::move(a), std::move(b));
}
ScalarExpr ScalarExpr::Sqrt(ScalarExpr a) {
  ScalarExpr e;
  e.op = Op::kSqrt;
  e.left = std::make_unique<ScalarExpr>(std::move(a));
  return e;
}
ScalarExpr ScalarExpr::Indicator(Predicate p) {
  ScalarExpr e;
  e.op = Op::kIndicator;
  e.pred = std::make_unique<Predicate>(std::move(p));
  return e;
}

CompiledExpr::CompiledExpr(const Table& table, const ScalarExpr& expr) {
  Compile(table, expr);
  // Postfix stack depth is bounded by expression depth; compute a safe bound.
  max_stack_ = prog_.size() + 1;
  SMOKE_CHECK(max_stack_ <= 64);  // expressions in this engine are small
}

void CompiledExpr::Compile(const Table& table, const ScalarExpr& expr) {
  switch (expr.op) {
    case ScalarExpr::Op::kCol: {
      Instr in;
      in.op = ScalarExpr::Op::kCol;
      int col = expr.col;
      if (!expr.col_name.empty()) {
        col = table.ColumnIndex(expr.col_name);
        SMOKE_CHECK(col >= 0);
      }
      const Column& c = table.column(static_cast<size_t>(col));
      SMOKE_CHECK(c.type() != DataType::kString);
      if (c.type() == DataType::kInt64) in.icol = c.ints().data();
      else in.dcol = c.doubles().data();
      prog_.push_back(std::move(in));
      break;
    }
    case ScalarExpr::Op::kConst: {
      Instr in;
      in.op = ScalarExpr::Op::kConst;
      in.constant = expr.constant;
      prog_.push_back(std::move(in));
      break;
    }
    case ScalarExpr::Op::kIndicator: {
      Instr in;
      in.op = ScalarExpr::Op::kIndicator;
      in.pred = std::make_shared<PredicateList>(
          table, std::vector<Predicate>{*expr.pred});
      prog_.push_back(std::move(in));
      break;
    }
    case ScalarExpr::Op::kSqrt:
      Compile(table, *expr.left);
      prog_.push_back({ScalarExpr::Op::kSqrt, nullptr, nullptr, 0, nullptr});
      break;
    default:
      Compile(table, *expr.left);
      Compile(table, *expr.right);
      prog_.push_back({expr.op, nullptr, nullptr, 0, nullptr});
      break;
  }
}

double CompiledExpr::Eval(rid_t rid) const {
  double stack[64];
  size_t top = 0;
  for (const Instr& in : prog_) {
    switch (in.op) {
      case ScalarExpr::Op::kCol:
        stack[top++] = in.icol ? static_cast<double>(in.icol[rid])
                               : in.dcol[rid];
        break;
      case ScalarExpr::Op::kConst:
        stack[top++] = in.constant;
        break;
      case ScalarExpr::Op::kIndicator:
        stack[top++] = in.pred->Eval(rid) ? 1.0 : 0.0;
        break;
      case ScalarExpr::Op::kSqrt:
        stack[top - 1] = std::sqrt(stack[top - 1]);
        break;
      case ScalarExpr::Op::kAdd:
        stack[top - 2] += stack[top - 1];
        --top;
        break;
      case ScalarExpr::Op::kSub:
        stack[top - 2] -= stack[top - 1];
        --top;
        break;
      case ScalarExpr::Op::kMul:
        stack[top - 2] *= stack[top - 1];
        --top;
        break;
      case ScalarExpr::Op::kDiv:
        stack[top - 2] /= stack[top - 1];
        --top;
        break;
    }
  }
  SMOKE_DCHECK(top == 1);
  return stack[0];
}

}  // namespace smoke
