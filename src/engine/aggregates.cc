#include "engine/aggregates.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"

namespace smoke {

AggLayout::AggLayout(const Table& table, const std::vector<AggSpec>& specs)
    : AggLayout(std::vector<const Table*>{&table}, specs) {}

AggLayout::AggLayout(const std::vector<const Table*>& tables,
                     const std::vector<AggSpec>& specs)
    : specs_(specs) {
  for (const AggSpec& s : specs_) {
    SMOKE_CHECK(s.src >= 0 && static_cast<size_t>(s.src) < tables.size());
    BoundAgg b;
    b.op = s.op;
    b.slot = stride_;
    b.src = s.src;
    if (s.op != AggOp::kCount) {
      b.expr = CompiledExpr(*tables[static_cast<size_t>(s.src)], s.expr);
      b.has_expr = true;
    }
    stride_ += (s.op == AggOp::kAvg) ? 2 : 1;
    bound_.push_back(std::move(b));
  }
}

void AggLayout::Rebind(const Table& table) {
  for (size_t i = 0; i < bound_.size(); ++i) {
    if (bound_[i].has_expr) {
      bound_[i].expr = CompiledExpr(table, specs_[i].expr);
    }
  }
}

void AggLayout::Init(double* state) const {
  for (const BoundAgg& b : bound_) {
    switch (b.op) {
      case AggOp::kCount:
      case AggOp::kSum:
        state[b.slot] = 0;
        break;
      case AggOp::kMin:
        state[b.slot] = std::numeric_limits<double>::infinity();
        break;
      case AggOp::kMax:
        state[b.slot] = -std::numeric_limits<double>::infinity();
        break;
      case AggOp::kAvg:
        state[b.slot] = 0;
        state[b.slot + 1] = 0;
        break;
    }
  }
}

void AggLayout::Update(double* state, rid_t rid) const {
  for (const BoundAgg& b : bound_) {
    switch (b.op) {
      case AggOp::kCount:
        state[b.slot] += 1;
        break;
      case AggOp::kSum:
        state[b.slot] += b.expr.Eval(rid);
        break;
      case AggOp::kMin:
        state[b.slot] = std::min(state[b.slot], b.expr.Eval(rid));
        break;
      case AggOp::kMax:
        state[b.slot] = std::max(state[b.slot], b.expr.Eval(rid));
        break;
      case AggOp::kAvg: {
        state[b.slot] += b.expr.Eval(rid);
        state[b.slot + 1] += 1;
        break;
      }
    }
  }
}

namespace {

/// Applies `fold(slot_state, value_of(rid))` to every row, in stream order.
template <typename ValueOf, typename Fold>
void FoldRows(double* states, size_t stride, size_t slot,
              const uint32_t* slots, const rid_t* rids, size_t n,
              ValueOf value_of, Fold fold) {
  if (slots == nullptr) {
    double acc = states[slot];
    for (size_t i = 0; i < n; ++i) fold(&acc, value_of(rids[i]));
    states[slot] = acc;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    fold(&states[slots[i] * stride + slot], value_of(rids[i]));
  }
}

template <typename Fold>
void FoldExpr(const CompiledExpr& expr, double* states, size_t stride,
              size_t slot, const uint32_t* slots, const rid_t* rids, size_t n,
              Fold fold) {
  if (const int64_t* col = expr.int_column()) {
    FoldRows(states, stride, slot, slots, rids, n,
             [col](rid_t r) { return static_cast<double>(col[r]); }, fold);
  } else if (const double* dcol = expr.double_column()) {
    FoldRows(states, stride, slot, slots, rids, n,
             [dcol](rid_t r) { return dcol[r]; }, fold);
  } else {
    FoldRows(states, stride, slot, slots, rids, n,
             [&expr](rid_t r) { return expr.Eval(r); }, fold);
  }
}

}  // namespace

void AggLayout::UpdateBatch(double* states, const uint32_t* slots,
                            const rid_t* rids, size_t n) const {
  const auto add = [](double* s, double v) { *s += v; };
  const auto one = [](rid_t) { return 1.0; };
  for (const BoundAgg& b : bound_) {
    switch (b.op) {
      case AggOp::kCount:
        FoldRows(states, stride_, b.slot, slots, rids, n, one, add);
        break;
      case AggOp::kSum:
        FoldExpr(b.expr, states, stride_, b.slot, slots, rids, n, add);
        break;
      case AggOp::kMin:
        FoldExpr(b.expr, states, stride_, b.slot, slots, rids, n,
                 [](double* s, double v) { *s = std::min(*s, v); });
        break;
      case AggOp::kMax:
        FoldExpr(b.expr, states, stride_, b.slot, slots, rids, n,
                 [](double* s, double v) { *s = std::max(*s, v); });
        break;
      case AggOp::kAvg:
        FoldExpr(b.expr, states, stride_, b.slot, slots, rids, n, add);
        FoldRows(states, stride_, b.slot + 1, slots, rids, n, one, add);
        break;
    }
  }
}

void AggLayout::UpdateMulti(double* state, const rid_t* rids) const {
  for (const BoundAgg& b : bound_) {
    const rid_t rid = rids[b.src];
    switch (b.op) {
      case AggOp::kCount:
        state[b.slot] += 1;
        break;
      case AggOp::kSum:
        state[b.slot] += b.expr.Eval(rid);
        break;
      case AggOp::kMin:
        state[b.slot] = std::min(state[b.slot], b.expr.Eval(rid));
        break;
      case AggOp::kMax:
        state[b.slot] = std::max(state[b.slot], b.expr.Eval(rid));
        break;
      case AggOp::kAvg:
        state[b.slot] += b.expr.Eval(rid);
        state[b.slot + 1] += 1;
        break;
    }
  }
}

void AggLayout::Merge(double* dst, const double* src) const {
  for (const BoundAgg& b : bound_) {
    switch (b.op) {
      case AggOp::kCount:
      case AggOp::kSum:
        dst[b.slot] += src[b.slot];
        break;
      case AggOp::kMin:
        dst[b.slot] = std::min(dst[b.slot], src[b.slot]);
        break;
      case AggOp::kMax:
        dst[b.slot] = std::max(dst[b.slot], src[b.slot]);
        break;
      case AggOp::kAvg:
        dst[b.slot] += src[b.slot];
        dst[b.slot + 1] += src[b.slot + 1];
        break;
    }
  }
}

double AggLayout::FinalValue(const double* state, size_t i) const {
  const BoundAgg& b = bound_[i];
  switch (b.op) {
    case AggOp::kCount:
    case AggOp::kSum:
    case AggOp::kMin:
    case AggOp::kMax:
      return state[b.slot];
    case AggOp::kAvg:
      return state[b.slot + 1] == 0 ? 0 : state[b.slot] / state[b.slot + 1];
  }
  return 0;
}

void AggLayout::Finalize(const double* state,
                         std::vector<Column*>* cols) const {
  for (size_t i = 0; i < bound_.size(); ++i) {
    double v = FinalValue(state, i);
    Column* c = (*cols)[i];
    if (c->type() == DataType::kInt64) {
      c->AppendInt(static_cast<int64_t>(v));
    } else {
      c->AppendDouble(v);
    }
  }
}

Field AggLayout::OutputField(size_t i) const {
  const AggSpec& s = specs_[i];
  DataType t =
      (s.op == AggOp::kCount) ? DataType::kInt64 : DataType::kFloat64;
  return Field{s.name, t};
}

}  // namespace smoke
