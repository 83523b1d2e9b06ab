#include "apps/plan_crossfilter.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "query/lineage_query.h"

namespace smoke {

Status PlanCrossfilter::AddView(std::string name, const LogicalPlan& plan,
                                const CaptureOptions& opts) {
  if (Find(name) != nullptr) {
    return Status::AlreadyExists("view '" + name + "'");
  }
  View v;
  v.name = std::move(name);
  SMOKE_RETURN_NOT_OK(ExecutePlan(plan, opts, &v.result));
  int idx = v.result.lineage.FindInput(relation_);
  if (idx < 0) {
    return Status::InvalidArgument("view '" + v.name +
                                   "' has no lineage on shared relation '" +
                                   relation_ + "'");
  }
  const TableLineage& tl = v.result.lineage.input(static_cast<size_t>(idx));
  if (tl.backward.empty() || tl.forward.empty()) {
    return Status::InvalidArgument(
        "view '" + v.name +
        "' must capture backward and forward lineage on '" + relation_ + "'");
  }
  views_.push_back(std::move(v));
  return Status::OK();
}

std::vector<std::string> PlanCrossfilter::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const View& v : views_) names.push_back(v.name);
  return names;
}

Status PlanCrossfilter::ViewOutput(const std::string& name,
                                   const Table** out) const {
  const View* v = Find(name);
  if (v == nullptr) return Status::NotFound("view '" + name + "'");
  *out = &v->result.output;
  return Status::OK();
}

const PlanCrossfilter::View* PlanCrossfilter::Find(
    const std::string& name) const {
  for (const View& v : views_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

namespace {

/// Bar rids per pass over the targets: an encoded list is decoded this
/// many at a time into a buffer that stays in L1 while every target counts
/// it.
constexpr size_t kChunk = 512;

/// One target's forward-count state. A reached row joins `first` when its
/// counter first leaves zero (first-seen order); a row is seen first at
/// most once, so `first` holds one slot per counter. A bit-packed forward
/// is counted by code (value - base; all ones for kInvalidRid) with no
/// check in the loop, and its codes map to rows after the bar.
struct TargetCount {
  const BrushTarget* target = nullptr;
  const LineageIndex* fw = nullptr;
  size_t num_rows = 0;
  EncodedRidArray::PackedReader packed;  ///< width 0: counted by row
  std::vector<int64_t> count;
  std::vector<rid_t> first;
  size_t linked = 0;
  rid_t bad = kInvalidRid;  ///< a reached row past the output

  /// Counts `n` bar rids: packed and raw 1:1 forwards on their own loops,
  /// every other form through its ForEachRelated.
  void Count(const rid_t* bar, size_t n) {
    int64_t* c = count.data();
    rid_t* f = first.data();
    size_t k = linked;
    if (packed.width != 0) {
      const EncodedRidArray::PackedReader p = packed;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t code = p.Code(bar[i]);
        if (c[code]++ == 0) f[k++] = static_cast<rid_t>(code);
      }
    } else if (fw->kind() == LineageIndex::Kind::kArray) {
      const rid_t* to_row = fw->array().data();
      for (size_t i = 0; i < n; ++i) {
        const rid_t t = to_row[bar[i]];
        if (t == kInvalidRid) continue;
        if (t >= num_rows) {
          bad = t;
        } else if (c[t]++ == 0) {
          f[k++] = t;
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        fw->ForEachRelated(bar[i], [&](rid_t t) {
          if (t >= num_rows) {
            bad = t;
          } else if (c[t]++ == 0) {
            f[k++] = t;
          }
        });
      }
    }
    linked = k;
  }

  /// The reached rows and their counts, in first-seen order.
  Status Finish(LinkedBrush* out) {
    out->rids.clear();
    out->counts.clear();
    for (size_t i = 0; i < linked; ++i) {
      rid_t t = first[i];
      const int64_t n = count[t];
      if (packed.width != 0) {
        if (t == packed.mask) continue;  // kInvalidRid
        t += packed.base;
        if (t >= num_rows) bad = t;
      }
      out->rids.push_back(t);
      out->counts.push_back(n);
    }
    if (bad != kInvalidRid) {
      return Status::InvalidArgument("traced rid " + std::to_string(bad) +
                                     " out of range for endpoint");
    }
    return MaterializeRowsChecked(target->result->output, out->rids,
                                  &out->rows);
  }
};

/// Sets up the count of target `t`, or the error the compiled chain gives
/// for a target it cannot trace into.
Status StartCount(const BrushTarget& t, const std::string& relation,
                  TargetCount* out) {
  const PlanResult& to = *t.result;
  const int idx = to.lineage.FindInput(relation);
  if (idx < 0) {
    return Status::NotFound("relation '" + relation +
                            "' in trace source lineage");
  }
  const LineageIndex& fw = to.lineage.input(static_cast<size_t>(idx)).forward;
  if (fw.empty()) {
    return Status::InvalidArgument(
        "forward lineage for '" + relation + "' was " +
        (to.lineage.evicted() ? "evicted under the lineage memory budget"
                              : "not captured"));
  }
  out->target = &t;
  out->fw = &fw;
  out->num_rows = to.output.num_rows();
  size_t counters = out->num_rows;
  if (fw.kind() == LineageIndex::Kind::kEncodedArray &&
      fw.encoded_array().encoding() == RidSetEncoding::kPacked) {
    // The width of a frame of rows within the output gives at most
    // 2 * num_rows codes, kInvalidRid's included. A wider frame holds rows
    // past the output, and is counted by row, which reports them.
    const EncodedRidArray::PackedReader p = fw.encoded_array().packed();
    if (p.mask <= 2 * out->num_rows + 1) {
      out->packed = p;
      counters = p.mask + 1;
    }
  }
  out->count.assign(counters, 0);
  out->first.resize(counters);
  return Status::OK();
}

/// True when `d` is strictly ascending: a group-by's input order, which
/// holds no duplicates.
bool StrictlyAscending(const rid_t* d, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    if (d[i - 1] >= d[i]) return false;
  }
  return true;
}

}  // namespace

Status BrushLinkedPlans(const PlanResult& from, rid_t out_rid,
                        const std::string& relation,
                        const std::vector<BrushTarget>& targets,
                        std::map<std::string, LinkedBrush>* out) {
  out->clear();
  // The brushed row's relation rows, read once for every target: in place
  // from a raw posting list, decoded in place from a bitmap or Elias-Fano
  // list (ascending by construction); any other list (and every
  // missing-index and range error) goes through the checked trace into a
  // copy.
  const int idx = from.lineage.FindInput(relation);
  const LineageIndex* bw =
      idx >= 0 ? &from.lineage.input(static_cast<size_t>(idx)).backward
               : nullptr;
  const bool in_range = bw != nullptr && out_rid < bw->size();
  const rid_t* bar = nullptr;
  size_t n = 0;
  const EncodedPostings* decode = nullptr;
  std::vector<rid_t> copy;
  if (in_range && bw->kind() == LineageIndex::Kind::kIndex) {
    const RidVec& list = bw->index().list(out_rid);
    bar = list.data();
    n = list.size();
  } else if (in_range && bw->kind() == LineageIndex::Kind::kEncodedIndex &&
             bw->encoded_postings().ListAscending(out_rid)) {
    decode = &bw->encoded_postings();
  } else {
    SMOKE_RETURN_NOT_OK(BackwardRidsChecked(from.lineage, relation, {out_rid},
                                            /*dedup=*/false, &copy));
    bar = copy.data();
    n = copy.size();
  }
  // Any other order is deduplicated into a copy, in first-seen order.
  const bool ascending = decode != nullptr || StrictlyAscending(bar, n);
  if (!ascending) {
    const rid_t max_rid = *std::max_element(bar, bar + n);
    std::vector<bool> seen(static_cast<size_t>(max_rid) + 1, false);
    std::vector<rid_t> unique;
    for (size_t k = 0; k < n; ++k) {
      if (!seen[bar[k]]) {
        seen[bar[k]] = true;
        unique.push_back(bar[k]);
      }
    }
    copy = std::move(unique);
    bar = copy.data();
    n = copy.size();
  }

  // One pass over the bar, a chunk at a time: each chunk is counted into
  // every target.
  std::vector<TargetCount> counts(targets.size());
  size_t min_fw = SIZE_MAX;
  for (size_t t = 0; t < targets.size(); ++t) {
    SMOKE_RETURN_NOT_OK(StartCount(targets[t], relation, &counts[t]));
    min_fw = std::min(min_fw, counts[t].fw->size());
  }
  rid_t out_of_range = kInvalidRid;
  auto count_chunk = [&](const rid_t* chunk, size_t m) {
    if (out_of_range != kInvalidRid) return;
    const rid_t max_rid =
        ascending ? chunk[m - 1] : *std::max_element(chunk, chunk + m);
    if (max_rid >= min_fw) {
      out_of_range = max_rid;
      return;
    }
    for (TargetCount& c : counts) c.Count(chunk, m);
  };
  if (decode != nullptr) {
    rid_t buf[kChunk];
    size_t m = 0;
    decode->ForEachInList(out_rid, [&](rid_t r) {
      buf[m++] = r;
      if (m == kChunk) {
        count_chunk(buf, m);
        m = 0;
      }
    });
    if (m > 0) count_chunk(buf, m);
  } else {
    for (size_t b = 0; b < n; b += kChunk) {
      count_chunk(bar + b, std::min(kChunk, n - b));
    }
  }
  if (out_of_range != kInvalidRid) {
    return Status::InvalidArgument("chained trace seed rid " +
                                   std::to_string(out_of_range) +
                                   " out of range");
  }
  for (TargetCount& c : counts) {
    LinkedBrush linked;
    SMOKE_RETURN_NOT_OK(c.Finish(&linked));
    (*out)[c.target->name] = std::move(linked);
  }
  return Status::OK();
}

Status PlanCrossfilter::Brush(const std::string& view, rid_t out_rid,
                              std::map<std::string, Linked>* out) const {
  const View* from = Find(view);
  if (from == nullptr) return Status::NotFound("view '" + view + "'");
  std::vector<BrushTarget> targets;
  for (const View& to : views_) {
    if (&to != from) targets.push_back({to.name, &to.result});
  }
  return BrushLinkedPlans(from->result, out_rid, relation_, targets, out);
}

}  // namespace smoke
