// Aggregate functions over a flat double-slot arena.
//
// Group-by operators keep one contiguous block of double slots per group
// (the "intermediate aggregation state" of the paper's γht). AggLayout maps
// a list of AggSpecs onto slots and provides init/update/finalize.
// Supported: COUNT(*), SUM(expr), MIN(expr), MAX(expr), AVG(expr) —
// the algebraic/distributive functions the push-down optimization supports.
#ifndef SMOKE_ENGINE_AGGREGATES_H_
#define SMOKE_ENGINE_AGGREGATES_H_

#include <string>
#include <vector>

#include "engine/expr.h"
#include "storage/table.h"

namespace smoke {

enum class AggOp : uint8_t { kCount, kSum, kMin, kMax, kAvg };

/// \brief One aggregate in a group-by's SELECT list.
struct AggSpec {
  AggOp op = AggOp::kCount;
  ScalarExpr expr;   // ignored for kCount
  std::string name;  // output column name
  /// Which input relation the expression reads, as an index into the
  /// multi-table AggLayout constructor's table list (0 = fact for SPJA
  /// blocks; single-table operators ignore it).
  int src = 0;

  static AggSpec Count(std::string name = "count") {
    AggSpec a;
    a.op = AggOp::kCount;
    a.name = std::move(name);
    return a;
  }
  static AggSpec Sum(ScalarExpr e, std::string name = "sum") {
    AggSpec a;
    a.op = AggOp::kSum;
    a.expr = std::move(e);
    a.name = std::move(name);
    return a;
  }
  static AggSpec Min(ScalarExpr e, std::string name = "min") {
    AggSpec a;
    a.op = AggOp::kMin;
    a.expr = std::move(e);
    a.name = std::move(name);
    return a;
  }
  static AggSpec Max(ScalarExpr e, std::string name = "max") {
    AggSpec a;
    a.op = AggOp::kMax;
    a.expr = std::move(e);
    a.name = std::move(name);
    return a;
  }
  static AggSpec Avg(ScalarExpr e, std::string name = "avg") {
    AggSpec a;
    a.op = AggOp::kAvg;
    a.expr = std::move(e);
    a.name = std::move(name);
    return a;
  }
};

/// \brief Binds AggSpecs to a table and lays their state out in a per-group
/// stride of double slots. COUNT uses 1 slot; SUM/MIN/MAX 1; AVG 2 (sum,
/// count). Updates run compiled expressions — no virtual calls per row.
class AggLayout {
 public:
  AggLayout() = default;
  AggLayout(const Table& table, const std::vector<AggSpec>& specs);

  /// Multi-table binding for SPJA blocks: each spec's expression is
  /// compiled against tables[spec.src].
  AggLayout(const std::vector<const Table*>& tables,
            const std::vector<AggSpec>& specs);

  /// Re-compiles the bound expressions against `table`'s current column
  /// payloads. Required after the table's columns reallocate (appends) —
  /// compiled expressions hold raw data pointers. Single-table layouts only.
  void Rebind(const Table& table);

  size_t stride() const { return stride_; }
  size_t num_aggs() const { return specs_.size(); }
  const std::vector<AggSpec>& specs() const { return specs_; }

  /// Writes initial state into `state[0..stride)`.
  void Init(double* state) const;

  /// Folds row `rid` into `state` (single-table binding).
  void Update(double* state, rid_t rid) const;

  /// Batch form of Update over a rid stream: folds rids[i] into the state
  /// block of group slots[i] (`states` holds stride() doubles per slot; a
  /// null `slots` folds every row into slot 0). Runs one loop per
  /// aggregate instead of dispatching per row; each state sees its rows in
  /// stream order, so the result is bit-identical to n Update calls.
  void UpdateBatch(double* states, const uint32_t* slots, const rid_t* rids,
                   size_t n) const;

  /// Folds one joined row into `state`; rids[i] addresses tables[i] from the
  /// multi-table constructor.
  void UpdateMulti(double* state, const rid_t* rids) const;

  /// Merges `src` state into `dst` (used by cube/partial-aggregate merging).
  void Merge(double* dst, const double* src) const;

  /// Appends one finalized output value per aggregate to `cols` (parallel to
  /// specs; cols[i] must have the type from OutputField(i)).
  void Finalize(const double* state, std::vector<Column*>* cols) const;

  /// Output schema contribution of aggregate `i`.
  Field OutputField(size_t i) const;

  /// Finalized scalar value of aggregate `i` (for cube lookups).
  double FinalValue(const double* state, size_t i) const;

 private:
  struct BoundAgg {
    AggOp op;
    size_t slot;
    CompiledExpr expr;  // unused for kCount
    bool has_expr = false;
    int src = 0;
  };

  std::vector<AggSpec> specs_;
  std::vector<BoundAgg> bound_;
  size_t stride_ = 0;
};

}  // namespace smoke

#endif  // SMOKE_ENGINE_AGGREGATES_H_
