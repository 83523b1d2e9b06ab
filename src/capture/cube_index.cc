#include "capture/cube_index.h"

#include "common/macros.h"
#include "engine/key_encode.h"

namespace smoke {

void CubeIndex::Init(const Table& fact, std::vector<int> sub_cols,
                     std::vector<AggSpec> aggs) {
  fact_ = &fact;
  sub_cols_ = std::move(sub_cols);
  layout_ = AggLayout(fact, aggs);
  stride_ = layout_.stride();
  int_key_ = sub_cols_.size() == 1 &&
             fact.column(static_cast<size_t>(sub_cols_[0])).type() ==
                 DataType::kInt64;
  if (int_key_) {
    int_col_ = fact.column(static_cast<size_t>(sub_cols_[0])).ints().data();
  }
  enabled_ = true;
}

std::string CubeIndex::StrKey(rid_t rid) const {
  return EncodeRowKey(*fact_, sub_cols_, rid);
}

void CubeIndex::AddGroup() {
  if (int_key_) int_maps_.emplace_back();
  else str_maps_.emplace_back();
  states_.emplace_back();
  cell_first_rid_.emplace_back();
}

void CubeIndex::Update(uint32_t g, rid_t rid) {
  uint32_t cell;
  if (int_key_) {
    auto& map = int_maps_[g];
    auto [it, inserted] =
        map.emplace(IntKey(rid), static_cast<uint32_t>(cell_first_rid_[g].size()));
    cell = it->second;
    if (inserted) {
      states_[g].resize(states_[g].size() + stride_);
      layout_.Init(states_[g].data() + cell * stride_);
      cell_first_rid_[g].push_back(rid);
    }
  } else {
    auto& map = str_maps_[g];
    auto [it, inserted] =
        map.emplace(StrKey(rid), static_cast<uint32_t>(cell_first_rid_[g].size()));
    cell = it->second;
    if (inserted) {
      states_[g].resize(states_[g].size() + stride_);
      layout_.Init(states_[g].data() + cell * stride_);
      cell_first_rid_[g].push_back(rid);
    }
  }
  layout_.Update(states_[g].data() + cell * stride_, rid);
}

Table CubeIndex::GroupTable(uint32_t g) const {
  Schema s;
  for (int c : sub_cols_) {
    s.AddField(fact_->schema().field(static_cast<size_t>(c)).name,
               fact_->schema().field(static_cast<size_t>(c)).type);
  }
  for (size_t i = 0; i < layout_.num_aggs(); ++i) {
    s.AddField(layout_.OutputField(i).name, layout_.OutputField(i).type);
  }
  Table out(s);
  const auto& firsts = cell_first_rid_[g];
  std::vector<Column*> agg_cols;
  for (size_t i = 0; i < layout_.num_aggs(); ++i) {
    agg_cols.push_back(&out.mutable_column(sub_cols_.size() + i));
  }
  for (size_t cell = 0; cell < firsts.size(); ++cell) {
    for (size_t k = 0; k < sub_cols_.size(); ++k) {
      out.mutable_column(k).AppendFrom(
          fact_->column(static_cast<size_t>(sub_cols_[k])), firsts[cell]);
    }
    layout_.Finalize(states_[g].data() + cell * stride_, &agg_cols);
  }
  return out;
}

size_t CubeIndex::MemoryBytes() const {
  size_t b = 0;
  for (const auto& v : states_) b += v.capacity() * sizeof(double);
  for (const auto& v : cell_first_rid_) b += v.capacity() * sizeof(rid_t);
  for (const auto& m : int_maps_) b += m.size() * 24;
  for (const auto& m : str_maps_) b += m.size() * 48;
  return b;
}

}  // namespace smoke
