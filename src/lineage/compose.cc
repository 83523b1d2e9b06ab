#include "lineage/compose.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"

namespace smoke {

namespace {

/// Appends every input rid that intermediate position `mid` maps to under
/// `inner` onto `list`. Works over raw and encoded forms (decode-on-demand:
/// only the probed posting list is decoded).
inline void AppendInner(const LineageIndex& inner, rid_t mid, RidVec* list) {
  inner.ForEachRelated(mid, [list](rid_t r) { list->PushBack(r); });
}

/// Sorts and deduplicates `scratch` (forward set semantics) and records it
/// as input `i`'s output list.
inline void SortedUniqueInto(std::vector<rid_t>* scratch, rid_t i,
                             ForwardIndexBuilder* out) {
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
  out->SetList(i, scratch->data(), scratch->size());
}

}  // namespace

LineageIndex ComposeBackward(const LineageIndex& outer,
                             const LineageIndex& inner) {
  if (outer.empty() || inner.empty()) return LineageIndex();
  const size_t n = outer.size();

  if (outer.IsOneToOne() && inner.IsOneToOne()) {
    RidArray out(n, kInvalidRid);
    for (size_t o = 0; o < n; ++o) {
      rid_t mid = outer.ValueAt(static_cast<rid_t>(o));
      if (mid != kInvalidRid) out[o] = inner.ValueAt(mid);
    }
    return LineageIndex::FromArray(std::move(out));
  }

  RidIndex out(n);
  for (size_t o = 0; o < n; ++o) {
    RidVec& list = out.list(o);
    outer.ForEachRelated(static_cast<rid_t>(o), [&inner, &list](rid_t mid) {
      AppendInner(inner, mid, &list);
    });
  }
  return LineageIndex::FromIndex(std::move(out));
}

LineageIndex ComposeForward(const LineageIndex& inner,
                            const LineageIndex& outer) {
  if (inner.empty() || outer.empty()) return LineageIndex();
  const size_t n = inner.size();

  if (inner.IsOneToOne() && outer.IsOneToOne()) {
    RidArray out(n, kInvalidRid);
    size_t valid = 0;
    for (size_t i = 0; i < n; ++i) {
      rid_t mid = inner.ValueAt(static_cast<rid_t>(i));
      if (mid == kInvalidRid) continue;
      out[i] = outer.ValueAt(mid);
      valid += out[i] != kInvalidRid;
    }
    return LineageIndex::FromArray(std::move(out), valid);
  }

  // 1:1 unless some input reaches two distinct outputs.
  ForwardIndexBuilder out(n);
  std::vector<rid_t> scratch;
  for (size_t i = 0; i < n; ++i) {
    scratch.clear();
    inner.ForEachRelated(static_cast<rid_t>(i), [&outer, &scratch](rid_t mid) {
      outer.TraceInto(mid, &scratch);
    });
    SortedUniqueInto(&scratch, static_cast<rid_t>(i), &out);
  }
  return out.Finish();
}

void MergeBackwardInto(LineageIndex* dst, LineageIndex src) {
  if (src.empty()) return;
  if (dst->empty()) {
    *dst = std::move(src);
    return;
  }
  SMOKE_CHECK(dst->size() == src.size());
  const size_t n = dst->size();
  // Promote to the raw 1-to-N form: merged outputs can have multiple
  // ancestors (and encoded forms are immutable).
  if (dst->kind() != LineageIndex::Kind::kIndex) {
    RidIndex promoted(n);
    for (size_t o = 0; o < n; ++o) {
      dst->ForEachRelated(static_cast<rid_t>(o),
                          [&promoted, o](rid_t r) { promoted.Append(o, r); });
    }
    *dst = LineageIndex::FromIndex(std::move(promoted));
  }
  RidIndex& di = dst->mutable_index();
  std::vector<rid_t> tmp;
  for (size_t o = 0; o < n; ++o) {
    tmp.clear();
    src.TraceInto(static_cast<rid_t>(o), &tmp);
    for (rid_t r : tmp) di.Append(o, r);
  }
}

void MergeForwardInto(LineageIndex* dst, LineageIndex src) {
  if (src.empty()) return;
  if (dst->empty()) {
    *dst = std::move(src);
    return;
  }
  SMOKE_CHECK(dst->size() == src.size());
  const size_t n = dst->size();
  ForwardIndexBuilder merged(n);
  std::vector<rid_t> scratch;
  for (size_t i = 0; i < n; ++i) {
    scratch.clear();
    dst->TraceInto(static_cast<rid_t>(i), &scratch);
    src.TraceInto(static_cast<rid_t>(i), &scratch);
    SortedUniqueInto(&scratch, static_cast<rid_t>(i), &merged);
  }
  *dst = merged.Finish();
}

LineageIndex InvertTraceRids(const std::vector<rid_t>& rids,
                             size_t num_rows) {
  // Output positions ascend, so a repeated rid's list keeps them in order.
  ForwardIndexBuilder fw(num_rows);
  for (size_t i = 0; i < rids.size(); ++i) {
    SMOKE_DCHECK(rids[i] < num_rows);
    fw.Add(rids[i], static_cast<rid_t>(i));
  }
  return fw.Finish();
}

LineageIndex IdentityIndex(size_t n) {
  RidArray ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<rid_t>(i);
  return LineageIndex::FromArray(std::move(ids), n);
}

}  // namespace smoke
