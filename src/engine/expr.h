// Scalar expressions and predicates.
//
// Predicates are small POD structs compared against typed constants; hot
// loops evaluate them through PredicateList, which binds column payloads
// once so per-row evaluation is branch-predictable switch dispatch with no
// virtual calls (tight integration, paper P1).
#ifndef SMOKE_ENGINE_EXPR_H_
#define SMOKE_ENGINE_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/types.h"
#include "storage/table.h"

namespace smoke {

enum class CmpOp : uint8_t { kLt, kLe, kGt, kGe, kEq, kNe, kIn };

/// \brief A comparison of one column against a constant, an IN set, or
/// another column of the same table (rhs_col >= 0).
///
/// Columns are referenced by index, or by name through the string factory
/// overloads: `col_name` / `rhs_col_name` are resolved against the owning
/// node's input schema by PlanBuilder::Build (plan/plan.h) and cleared once
/// resolved. Execution kernels only ever see indexes.
struct Predicate {
  int col = -1;
  CmpOp op = CmpOp::kEq;
  DataType type = DataType::kInt64;
  int64_t ival = 0;
  double dval = 0;
  std::string sval;
  std::vector<int64_t> in_ints;
  std::vector<std::string> in_strs;
  int rhs_col = -1;  ///< column-to-column comparison (e.g., TPC-H Q12)
  std::string col_name;      ///< unresolved name form of `col`
  std::string rhs_col_name;  ///< unresolved name form of `rhs_col`

  static Predicate Int(int col, CmpOp op, int64_t v) {
    Predicate p;
    p.col = col; p.op = op; p.type = DataType::kInt64; p.ival = v;
    return p;
  }
  static Predicate Double(int col, CmpOp op, double v) {
    Predicate p;
    p.col = col; p.op = op; p.type = DataType::kFloat64; p.dval = v;
    return p;
  }
  static Predicate Str(int col, CmpOp op, std::string v) {
    Predicate p;
    p.col = col; p.op = op; p.type = DataType::kString; p.sval = std::move(v);
    return p;
  }
  static Predicate IntIn(int col, std::vector<int64_t> vals) {
    Predicate p;
    p.col = col; p.op = CmpOp::kIn; p.type = DataType::kInt64;
    p.in_ints = std::move(vals);
    return p;
  }
  static Predicate StrIn(int col, std::vector<std::string> vals) {
    Predicate p;
    p.col = col; p.op = CmpOp::kIn; p.type = DataType::kString;
    p.in_strs = std::move(vals);
    return p;
  }
  static Predicate ColCmp(int col, CmpOp op, int rhs_col, DataType type) {
    Predicate p;
    p.col = col; p.op = op; p.type = type; p.rhs_col = rhs_col;
    return p;
  }

  // Name-based forms, resolved at plan-build time.
  static Predicate Int(std::string col, CmpOp op, int64_t v) {
    Predicate p = Int(-1, op, v);
    p.col_name = std::move(col);
    return p;
  }
  static Predicate Double(std::string col, CmpOp op, double v) {
    Predicate p = Double(-1, op, v);
    p.col_name = std::move(col);
    return p;
  }
  static Predicate Str(std::string col, CmpOp op, std::string v) {
    Predicate p = Str(-1, op, std::move(v));
    p.col_name = std::move(col);
    return p;
  }
  static Predicate IntIn(std::string col, std::vector<int64_t> vals) {
    Predicate p = IntIn(-1, std::move(vals));
    p.col_name = std::move(col);
    return p;
  }
  static Predicate StrIn(std::string col, std::vector<std::string> vals) {
    Predicate p = StrIn(-1, std::move(vals));
    p.col_name = std::move(col);
    return p;
  }
  /// The compared type is taken from the resolved column's schema entry.
  static Predicate ColCmp(std::string col, CmpOp op, std::string rhs_col) {
    Predicate p = ColCmp(-1, op, -1, DataType::kInt64);
    p.col_name = std::move(col);
    p.rhs_col_name = std::move(rhs_col);
    return p;
  }
};

/// \brief A conjunction of predicates bound to a table's column payloads.
class PredicateList {
 public:
  PredicateList() = default;
  PredicateList(const Table& table, std::vector<Predicate> preds);

  /// True when every predicate accepts row `rid`.
  bool Eval(rid_t rid) const {
    for (const auto& b : bound_) {
      if (!EvalOne(b, rid)) return false;
    }
    return true;
  }

  bool empty() const { return bound_.empty(); }
  size_t size() const { return bound_.size(); }
  const std::vector<Predicate>& predicates() const { return preds_; }

  /// Batch form of Eval over a rid stream: sets `*pos` to the positions i,
  /// ascending, whose row rids[i] passes every predicate. Runs one tight
  /// loop per predicate (column-vs-constant compares on numeric columns are
  /// specialized per operator) instead of dispatching per row.
  void SelectPositions(const rid_t* rids, size_t n,
                       std::vector<uint32_t>* pos) const;

 private:
  struct Bound {
    const Predicate* pred;
    const int64_t* icol = nullptr;
    const double* dcol = nullptr;
    const std::string* scol = nullptr;
    const int64_t* icol2 = nullptr;  // rhs column (col-to-col compares)
    const double* dcol2 = nullptr;
    const std::string* scol2 = nullptr;
  };

  static bool EvalOne(const Bound& b, rid_t rid);

  std::vector<Predicate> preds_;
  std::vector<Bound> bound_;
};

/// \brief Arithmetic scalar expression AST (aggregate arguments like
/// l_extendedprice * (1 - l_discount) * (1 + l_tax), sum(v*v), sqrt(v)).
///
/// Predicates can be embedded (Indicator), evaluating to 1.0/0.0 — this is
/// how CASE WHEN ... THEN 1 ELSE 0 aggregates (TPC-H Q12) are expressed.
struct ScalarExpr {
  enum class Op : uint8_t {
    kCol, kConst, kAdd, kSub, kMul, kDiv, kSqrt, kIndicator
  };

  Op op = Op::kConst;
  int col = -1;
  /// Unresolved name form of `col` (kCol only) — resolved against the
  /// owning node's input schema by PlanBuilder::Build and cleared.
  std::string col_name;
  double constant = 0;
  std::unique_ptr<Predicate> pred;  // Indicator payload
  std::unique_ptr<ScalarExpr> left;
  std::unique_ptr<ScalarExpr> right;

  ScalarExpr() = default;
  ScalarExpr(const ScalarExpr& other) { *this = other; }
  ScalarExpr& operator=(const ScalarExpr& other);
  ScalarExpr(ScalarExpr&&) = default;
  ScalarExpr& operator=(ScalarExpr&&) = default;

  static ScalarExpr Col(int c);
  static ScalarExpr Col(std::string name);
  static ScalarExpr Const(double v);
  static ScalarExpr Add(ScalarExpr a, ScalarExpr b);
  static ScalarExpr Sub(ScalarExpr a, ScalarExpr b);
  static ScalarExpr Mul(ScalarExpr a, ScalarExpr b);
  static ScalarExpr Div(ScalarExpr a, ScalarExpr b);
  static ScalarExpr Sqrt(ScalarExpr a);
  static ScalarExpr Indicator(Predicate p);
};

/// \brief A ScalarExpr compiled to a postfix program over bound column
/// payloads; evaluation runs a small value stack with no allocation.
class CompiledExpr {
 public:
  CompiledExpr() = default;
  CompiledExpr(const Table& table, const ScalarExpr& expr);

  double Eval(rid_t rid) const;

  /// When the program is a single column read (SUM(col) and friends): that
  /// column's payload, exactly one of the two non-null. Both null otherwise.
  const int64_t* int_column() const {
    return IsColumnRead() ? prog_[0].icol : nullptr;
  }
  const double* double_column() const {
    return IsColumnRead() ? prog_[0].dcol : nullptr;
  }

 private:
  bool IsColumnRead() const {
    return prog_.size() == 1 && prog_[0].op == ScalarExpr::Op::kCol;
  }

  struct Instr {
    ScalarExpr::Op op;
    const int64_t* icol = nullptr;
    const double* dcol = nullptr;
    double constant = 0;
    // Indicator payload
    std::shared_ptr<PredicateList> pred;
  };

  void Compile(const Table& table, const ScalarExpr& expr);

  std::vector<Instr> prog_;
  size_t max_stack_ = 0;
};

}  // namespace smoke

#endif  // SMOKE_ENGINE_EXPR_H_
