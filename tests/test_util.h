// Shared helpers for the Smoke test suite.
#ifndef SMOKE_TESTS_TEST_UTIL_H_
#define SMOKE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/smoke_engine.h"
#include "lineage/query_lineage.h"
#include "lineage/rid_index.h"
#include "storage/table.h"

namespace smoke {
namespace testing {

/// Sorted copy of a rid container.
template <typename C>
std::vector<rid_t> Sorted(const C& c) {
  std::vector<rid_t> v(c.begin(), c.end());
  std::sort(v.begin(), v.end());
  return v;
}

inline std::vector<rid_t> SortedList(const RidIndex& idx, size_t i) {
  return Sorted(idx.list(i));
}

/// All (source, target) edges of a LineageIndex as a sorted pair list.
inline std::vector<std::pair<rid_t, rid_t>> Edges(const LineageIndex& idx) {
  std::vector<std::pair<rid_t, rid_t>> edges;
  std::vector<rid_t> tmp;
  for (rid_t s = 0; s < idx.size(); ++s) {
    tmp.clear();
    idx.TraceInto(s, &tmp);
    for (rid_t t : tmp) edges.emplace_back(s, t);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Checks that backward (out -> in) and forward (in -> out) indexes of a
/// table's lineage are mutual inverses (same edge set, flipped).
inline bool AreInverse(const LineageIndex& backward,
                       const LineageIndex& forward) {
  auto b = Edges(backward);
  auto f = Edges(forward);
  for (auto& e : f) std::swap(e.first, e.second);
  std::sort(f.begin(), f.end());
  // Forward edges may be deduplicated; compare as sets.
  std::set<std::pair<rid_t, rid_t>> bs(b.begin(), b.end());
  std::set<std::pair<rid_t, rid_t>> fs(f.begin(), f.end());
  return bs == fs;
}

/// Renders a table row as a comparable string.
inline std::string RowKey(const Table& t, rid_t r) {
  std::string s;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    s += ValueToString(t.GetValue(r, c));
    s += "|";
  }
  return s;
}

/// Multiset of rendered rows — order-insensitive table comparison.
inline std::multiset<std::string> RowSet(const Table& t) {
  std::multiset<std::string> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    rows.insert(RowKey(t, static_cast<rid_t>(r)));
  }
  return rows;
}

/// Map from a table's grouped key prefix (first `key_cols` columns) to the
/// rendered rest of the row — for comparing group-by outputs that may
/// differ in row order.
inline std::map<std::string, std::string> GroupedRows(const Table& t,
                                                      size_t key_cols) {
  std::map<std::string, std::string> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string k, v;
    for (size_t c = 0; c < key_cols; ++c) {
      k += ValueToString(t.GetValue(static_cast<rid_t>(r), c)) + "|";
    }
    for (size_t c = key_cols; c < t.num_columns(); ++c) {
      v += ValueToString(t.GetValue(static_cast<rid_t>(r), c)) + "|";
    }
    rows[k] = v;
  }
  return rows;
}

/// Linked brushing between two retained results of `engine`:
/// Lf(Lb(out_rids ⊆ from, relation), to) as one two-hop trace (both hops
/// deduplicate).
inline Status TraceAcross(const SmokeEngine& engine, const std::string& from,
                          const std::vector<rid_t>& out_rids,
                          const std::string& relation, const std::string& to,
                          std::vector<rid_t>* linked) {
  TraceSource src, dst;
  SMOKE_RETURN_NOT_OK(engine.MakeTraceSource(from, &src));
  SMOKE_RETURN_NOT_OK(engine.MakeTraceSource(to, &dst));
  PlanResult pr;
  SMOKE_RETURN_NOT_OK(TraceBuilder::Backward(std::move(src), relation, out_rids)
                          .ThenForward(std::move(dst))
                          .Execute(CaptureOptions::None(), &pr));
  Table rows;
  return SplitTraceRows(pr.output, linked, &rows);
}

}  // namespace testing
}  // namespace smoke

#endif  // SMOKE_TESTS_TEST_UTIL_H_
