// End-to-end lineage of one (multi-)operator query: for each input base
// relation, a backward index (output -> input rids) and a forward index
// (input rid -> outputs). This is what Smoke's instrumented plans emit
// (paper Figure 2: "query execution generates lineage indexes that map input
// and output record ids").
#ifndef SMOKE_LINEAGE_QUERY_LINEAGE_H_
#define SMOKE_LINEAGE_QUERY_LINEAGE_H_

#include <deque>
#include <string>
#include <vector>

#include "common/macros.h"
#include "lineage/rid_index.h"

namespace smoke {

class Table;

/// Lineage of the query output with respect to one input relation.
struct TableLineage {
  std::string table_name;
  const Table* table = nullptr;  ///< borrowed input relation
  LineageIndex backward;         ///< output position -> input rids
  LineageIndex forward;          ///< input rid -> output positions
};

/// \brief Lineage indexes for one executed query.
///
/// Backward lists preserve duplicates and per-table alignment: for an output
/// o, position j of every table's backward list corresponds to the same
/// derivation (join witness). This is what lets Smoke recover why-/how-
/// provenance from plain rid indexes (paper Appendix E).
class QueryLineage {
 public:
  QueryLineage() = default;

  size_t num_inputs() const { return inputs_.size(); }
  size_t output_cardinality() const { return output_cardinality_; }
  void set_output_cardinality(size_t n) { output_cardinality_ = n; }

  TableLineage& AddInput(std::string name, const Table* table) {
    inputs_.push_back(TableLineage{std::move(name), table, {}, {}});
    return inputs_.back();
  }

  const TableLineage& input(size_t i) const {
    SMOKE_DCHECK(i < inputs_.size());
    return inputs_[i];
  }
  TableLineage& mutable_input(size_t i) {
    SMOKE_DCHECK(i < inputs_.size());
    return inputs_[i];
  }

  /// Index of the input named `name`, or -1.
  int FindInput(const std::string& name) const {
    for (size_t i = 0; i < inputs_.size(); ++i) {
      if (inputs_[i].table_name == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Freezes every raw index at exact size (a retained result keeps no
  /// capture growth slack).
  void ShrinkToFit() {
    for (auto& in : inputs_) {
      in.backward.ShrinkToFit();
      in.forward.ShrinkToFit();
    }
  }

  /// Total bytes held by all indexes (storage-overhead reporting).
  size_t MemoryBytes() const {
    size_t b = 0;
    for (const auto& in : inputs_) {
      b += in.backward.MemoryBytes() + in.forward.MemoryBytes();
    }
    return b;
  }

  /// True when the indexes were dropped by the lineage store's budget
  /// eviction (lineage/store/). Distinguishes "evicted — answer backward
  /// traces via the lazy rescan" from "never captured / pruned / replaced
  /// by a push-down artifact", where a silent lazy answer would contradict
  /// the declared capture semantics and the right response is an error.
  bool evicted() const { return evicted_; }
  void set_evicted(bool evicted) { evicted_ = evicted; }

 private:
  // Deque: AddInput hands out references that must survive later AddInputs.
  std::deque<TableLineage> inputs_;
  size_t output_cardinality_ = 0;
  bool evicted_ = false;
};

}  // namespace smoke

#endif  // SMOKE_LINEAGE_QUERY_LINEAGE_H_
