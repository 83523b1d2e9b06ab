#include "engine/hash_join.h"

#include <memory>
#include <string>
#include <utility>

#include "common/macros.h"
#include "lineage/fragment_merge.h"
#include "plan/scheduler.h"

namespace smoke {

namespace {

/// Output schema: left fields, then right fields (renamed on collision),
/// then annotation columns for the rid-annotated logic modes.
Schema OutputSchema(const Table& left, const Table& right,
                    const std::string& right_name, CaptureMode mode) {
  Schema s = left.schema();
  for (const auto& f : right.schema().fields()) {
    std::string name = f.name;
    if (s.IndexOf(name) >= 0) name = right_name + "_" + name;
    s.AddField(std::move(name), f.type);
  }
  if (mode == CaptureMode::kLogicRid || mode == CaptureMode::kLogicIdx) {
    s.AddField("prov_rid_a", DataType::kInt64);
    s.AddField("prov_rid_b", DataType::kInt64);
  }
  return s;
}

/// Morsel-driven parallel ⋈'probe (kNone, kInject, and pk-fk kDefer — the
/// modes whose probe loop is stateless given the read-only build table).
/// B is split into morsels; each morsel probes the shared hash table into a
/// thread-local output chunk plus per-morsel lineage fragments: A/B backward
/// rids are absolute, output rids morsel-local. Fragments merge in morsel
/// order; A's forward index is rebuilt exactly-sized by inverting the merged
/// A-backward array (per-morsel forward fragments would overlap on A rows).
JoinResult HashJoinProbeParallel(const Table& left,
                                 const std::string& left_name,
                                 const Table& right,
                                 const std::string& right_name,
                                 const JoinSpec& spec,
                                 const CaptureOptions& opts,
                                 const JoinHashTable& ht,
                                 TaskScheduler* sched) {
  const size_t na = left.num_rows();
  const size_t nb = right.num_rows();
  const int64_t* rkeys =
      right.column(static_cast<size_t>(spec.right_key)).ints().data();
  const CaptureMode mode = opts.mode;
  const bool pk = spec.pk_build;
  const bool smoke = mode != CaptureMode::kNone;
  const bool want_a = smoke && opts.WantsTable(left_name);
  const bool want_b_side = smoke && opts.WantsTable(right_name);
  const bool want_bw = opts.capture_backward;
  const bool want_fw = opts.capture_forward;
  // A's forward index is derived from the merged backward array, so the
  // backward fragments are collected whenever either A-side direction is on.
  const bool need_a_bw = want_a && (want_bw || want_fw);
  const bool need_b_bw = want_b_side && want_bw;
  const bool need_b_fw = want_b_side && want_fw;

  const size_t morsel_rows = opts.morsel_rows > 0
                                 ? opts.morsel_rows
                                 : MorselScheduler::kDefaultMorselRows;
  const std::vector<Morsel> morsels = MakeMorsels(nb, morsel_rows);
  const size_t nm = morsels.size();

  const Schema out_schema = OutputSchema(left, right, right_name, mode);
  const size_t left_cols = left.num_columns();
  const size_t right_cols = right.num_columns();

  std::vector<Table> chunks(nm);
  std::vector<RidArray> a_bw_parts(nm);
  std::vector<RidArray> b_bw_parts(nm);
  std::vector<RidArray> b_fw_arr_parts(nm);   // pk: B row -> one local out
  std::vector<RidIndex> b_fw_idx_parts(nm);   // M:N: B row -> local outs
  std::vector<size_t> counts(nm, 0);

  sched->ParallelFor(nm, [&](size_t m, size_t) {
    const Morsel span = morsels[m];
    Table chunk(out_schema);
    RidArray a_bw;
    RidArray b_bw;
    RidArray b_fw_arr;
    RidIndex b_fw_idx;
    if (need_b_fw) {
      if (pk) b_fw_arr.assign(span.rows(), kInvalidRid);
      else b_fw_idx.Resize(span.rows());
    }
    if (pk) {
      // Per-morsel join cardinality is bounded by the morsel's B rows.
      if (spec.materialize_output) chunk.Reserve(span.rows());
      if (need_a_bw) a_bw.reserve(span.rows());
      if (need_b_bw) b_bw.reserve(span.rows());
    }
    rid_t local_o = 0;
    for (rid_t b = span.begin; b < span.end; ++b) {
      uint32_t slot = ht.map.Find(rkeys[b]);
      if (slot == IntKeyMap::kNotFound) continue;
      const rid_t* match_begin = ht.rids(slot);
      const size_t match_count = ht.count(slot);
      for (size_t i = 0; i < match_count; ++i) {
        rid_t a = match_begin[i];
        if (spec.materialize_output) {
          chunk.AppendRowFrom(left, a);
          for (size_t c = 0; c < right_cols; ++c) {
            chunk.mutable_column(left_cols + c).AppendFrom(right.column(c), b);
          }
        }
        if (need_a_bw) a_bw.push_back(a);
        if (need_b_bw) b_bw.push_back(b);
        if (need_b_fw) {
          if (pk) b_fw_arr[b - span.begin] = local_o;
          else b_fw_idx.Append(b - span.begin, local_o);
        }
        ++local_o;
      }
    }
    counts[m] = local_o;
    chunks[m] = std::move(chunk);
    a_bw_parts[m] = std::move(a_bw);
    b_bw_parts[m] = std::move(b_bw);
    b_fw_arr_parts[m] = std::move(b_fw_arr);
    b_fw_idx_parts[m] = std::move(b_fw_idx);
  });

  // ---- deterministic merge in morsel order ----
  const std::vector<rid_t> offsets = ExclusiveOffsets(counts);
  const rid_t total = offsets[nm];

  JoinResult result;
  result.output = Table(out_schema);
  result.output_cardinality = total;
  if (spec.materialize_output) {
    result.output.Reserve(total);
    for (size_t m = 0; m < nm; ++m) {
      result.output.AppendAllRows(std::move(chunks[m]));
    }
  }

  if (mode != CaptureMode::kNone) {
    TableLineage& la = result.lineage.AddInput(left_name, &left);
    TableLineage& lb = result.lineage.AddInput(right_name, &right);
    result.lineage.set_output_cardinality(total);
    if (need_a_bw) {
      RidArray a_bw = ConcatBackwardArrays(std::move(a_bw_parts));
      if (want_fw) {
        la.forward = LineageIndex::FromIndex(InvertBackwardArray(a_bw, na));
      }
      if (want_bw) la.backward = LineageIndex::FromArray(std::move(a_bw));
    }
    if (need_b_bw) {
      lb.backward = LineageIndex::FromArray(
          ConcatBackwardArrays(std::move(b_bw_parts)));
    }
    if (need_b_fw) {
      if (pk) {
        std::vector<rid_t> in_begins(nm);
        for (size_t m = 0; m < nm; ++m) in_begins[m] = morsels[m].begin;
        lb.forward = LineageIndex::FromArray(
            ScatterForwardArrays(nb, b_fw_arr_parts, in_begins, offsets));
      } else {
        lb.forward = LineageIndex::FromIndex(
            ConcatIndexParts(std::move(b_fw_idx_parts), offsets));
      }
    }
  }
  return result;
}

}  // namespace

JoinResult HashJoinExec(const Table& left, const std::string& left_name,
                        const Table& right, const std::string& right_name,
                        const JoinSpec& spec, const CaptureOptions& opts) {
  auto fail = [](std::string why) {
    JoinResult r;
    r.status = Status::InvalidArgument(std::move(why));
    return r;
  };
  if (!spec.left_key_name.empty() || !spec.right_key_name.empty()) {
    // Name forms reaching the kernel directly (no PlanBuilder::Build pass)
    // resolve here.
    JoinSpec resolved = spec;
    if (!resolved.left_key_name.empty()) {
      resolved.left_key = left.ColumnIndex(resolved.left_key_name);
      resolved.left_key_name.clear();
    }
    if (!resolved.right_key_name.empty()) {
      resolved.right_key = right.ColumnIndex(resolved.right_key_name);
      resolved.right_key_name.clear();
    }
    return HashJoinExec(left, left_name, right, right_name, resolved, opts);
  }
  if (spec.left_key < 0 ||
      static_cast<size_t>(spec.left_key) >= left.num_columns() ||
      spec.right_key < 0 ||
      static_cast<size_t>(spec.right_key) >= right.num_columns()) {
    return fail("hash-join key column out of range");
  }
  if (left.column(static_cast<size_t>(spec.left_key)).type() !=
          DataType::kInt64 ||
      right.column(static_cast<size_t>(spec.right_key)).type() !=
          DataType::kInt64) {
    return fail("hash-join keys must be int64 columns");
  }

  const size_t na = left.num_rows();
  const size_t nb = right.num_rows();
  const int64_t* lkeys =
      left.column(static_cast<size_t>(spec.left_key)).ints().data();
  const int64_t* rkeys =
      right.column(static_cast<size_t>(spec.right_key)).ints().data();

  const CaptureMode mode = opts.mode;
  // Pk-fk joins: Defer is identical to Inject (Section 3.2.4).
  const bool pk = spec.pk_build;
  const bool inject = mode == CaptureMode::kInject ||
                      (mode == CaptureMode::kDefer && pk);
  const bool defer = mode == CaptureMode::kDefer && !pk;
  const bool defer_backward =
      defer && spec.defer_variant == JoinSpec::DeferVariant::kBoth;
  const bool phys = mode == CaptureMode::kPhysMem ||
                    mode == CaptureMode::kPhysBdb;
  const bool logic_rid =
      mode == CaptureMode::kLogicRid || mode == CaptureMode::kLogicIdx;
  const bool smoke = inject || defer;

  const bool want_a = smoke && opts.WantsTable(left_name);
  const bool want_b_side = smoke && opts.WantsTable(right_name);
  const bool want_bw = opts.capture_backward;
  const bool want_fw = opts.capture_forward;

  // Morsel-parallel probe path: kNone, kInject, and pk-fk kDefer (≡ Inject).
  // Non-pk kDefer keeps the sequential probe — its o_rids bookkeeping and
  // scanht pass already amortize capture off the critical path.
  const bool parallel = opts.WantsParallel() && !defer;

  // ---- ⋈'ht: build phase on A ----
  JoinHashTable ht(na);
  ht.pk = pk;
  const CardinalityHints* hints = opts.hints;
  const bool tc = hints != nullptr && hints->have_per_key_counts;

  // Forward index for A (rid index: one A row joins many outputs). The
  // parallel probe derives it from the merged backward fragments instead.
  RidIndex a_fw;
  if (!parallel && want_a && want_fw) a_fw.Resize(na);

  for (rid_t a = 0; a < na; ++a) {
    uint32_t fresh = static_cast<uint32_t>(pk ? ht.single_rid.size()
                                              : ht.i_rids.size());
    uint32_t slot = ht.map.FindOrInsert(lkeys[a], fresh);
    if (slot == IntKeyMap::kNotFound) {
      slot = fresh;
      if (pk) {
        ht.single_rid.push_back(a);
      } else {
        ht.i_rids.emplace_back();
      }
      if (defer) ht.o_rids.emplace_back();
    } else if (pk) {
      return fail("pk_build join has duplicate build keys");
    }
    if (!pk) ht.i_rids[slot].PushBack(a);
    // Smoke-I+TC: pre-size this A row's forward list with the known number
    // of B matches for its key.
    if (!parallel && tc && want_a && want_fw) {
      auto it = hints->per_key_counts.find(lkeys[a]);
      if (it != hints->per_key_counts.end()) a_fw.list(a).Reserve(it->second);
    }
  }

  // Refresh probes appended rows against the table this kernel built.
  auto retain = [&opts, &ht](JoinResult* r) {
    if (opts.retain_refresh_state) {
      r->build_table = std::make_shared<const JoinHashTable>(std::move(ht));
    }
  };

  if (parallel) {
    JoinResult result;
    if (opts.scheduler != nullptr) {
      result = HashJoinProbeParallel(left, left_name, right, right_name, spec,
                                     opts, ht, opts.scheduler);
    } else {
      MorselScheduler local(opts.num_threads);
      result = HashJoinProbeParallel(left, left_name, right, right_name,
                                     spec, opts, ht, &local);
    }
    retain(&result);
    return result;
  }

  // ---- ⋈'probe: probe phase with B ----
  JoinResult result;
  result.output = Table(OutputSchema(left, right, right_name, mode));
  if (pk && spec.materialize_output) {
    // Pk-fk join cardinality is bounded by |B| — pre-size the output for
    // every mode (an engine-level optimization, not a capture one).
    result.output.Reserve(nb);
  }
  const size_t left_cols = left.num_columns();
  const size_t right_cols = right.num_columns();
  const size_t ann_a_col = left_cols + right_cols;

  RidArray a_bw;
  RidArray b_bw;
  RidIndex b_fw_idx;   // M:N: B row -> many outputs
  RidArray b_fw_arr;   // pk-fk: B row -> exactly one output
  if (want_b_side && want_fw) {
    if (pk) b_fw_arr.assign(nb, kInvalidRid);
    else b_fw_idx.Resize(nb);
  }
  if (pk) {
    // Join cardinality <= |B|: pre-allocate backward arrays.
    if (want_a && want_bw) a_bw.reserve(nb);
    if (want_b_side && want_bw) b_bw.reserve(nb);
  }

  if (phys) {
    SMOKE_CHECK(opts.writer != nullptr && spec.writer_right != nullptr);
    opts.writer->BeginCapture(na);
    spec.writer_right->BeginCapture(nb);
  }

  rid_t o = 0;
  for (rid_t b = 0; b < nb; ++b) {
    uint32_t slot = ht.map.Find(rkeys[b]);
    if (slot == IntKeyMap::kNotFound) continue;
    const rid_t* match_begin = ht.rids(slot);
    const size_t match_count = ht.count(slot);
    if (defer) ht.o_rids[slot].PushBack(o);  // first output rid of this run
    for (size_t m = 0; m < match_count; ++m) {
      rid_t a = match_begin[m];
      if (spec.materialize_output) {
        result.output.AppendRowFrom(left, a);
        for (size_t c = 0; c < right_cols; ++c) {
          result.output.mutable_column(left_cols + c)
              .AppendFrom(right.column(c), b);
        }
      }
      if (logic_rid) {
        result.output.mutable_column(ann_a_col).AppendInt(a);
        result.output.mutable_column(ann_a_col + 1).AppendInt(b);
      }
      if (inject) {
        if (want_a && want_bw) a_bw.push_back(a);
        if (want_a && want_fw) a_fw.Append(a, o);
      } else if (defer && !defer_backward) {
        // Smoke-D-DeferForw: backward for A inline, forward deferred.
        if (want_a && want_bw) a_bw.push_back(a);
      }
      if (want_b_side && want_bw) b_bw.push_back(b);
      if (want_b_side && want_fw) {
        if (pk) b_fw_arr[b] = o;
        else b_fw_idx.Append(b, o);
      }
      if (phys) {
        opts.writer->Emit(o, a);
        spec.writer_right->Emit(o, b);
      }
      ++o;
    }
  }
  result.output_cardinality = o;

  if (phys) {
    opts.writer->FinishCapture(o);
    spec.writer_right->FinishCapture(o);
  }

  // ---- scanht: deferred index construction for A (Section 3.2.4) ----
  if (defer && want_a) {
    // Exact cardinalities are now known: each entry produced
    // |i_rids| * |o_rids| outputs.
    if (defer_backward && want_bw) a_bw.assign(o, kInvalidRid);
    const size_t num_entries = ht.i_rids.size();
    for (size_t s = 0; s < num_entries; ++s) {
      const RidVec& in_rids = ht.i_rids[s];
      const RidVec& out_starts = ht.o_rids[s];
      if (want_fw) {
        for (size_t i = 0; i < in_rids.size(); ++i) {
          a_fw.list(in_rids[i]).Reserve(out_starts.size());
        }
      }
      for (size_t j = 0; j < out_starts.size(); ++j) {
        rid_t start = out_starts[j];
        for (size_t i = 0; i < in_rids.size(); ++i) {
          rid_t out_rid = start + static_cast<rid_t>(i);
          if (defer_backward && want_bw) a_bw[out_rid] = in_rids[i];
          if (want_fw) a_fw.Append(in_rids[i], out_rid);
        }
      }
    }
  }

  // ---- lineage emission ----
  if (mode != CaptureMode::kNone) {
    TableLineage& la = result.lineage.AddInput(left_name, &left);
    TableLineage& lb = result.lineage.AddInput(right_name, &right);
    result.lineage.set_output_cardinality(o);
    if (smoke) {
      if (want_a && want_bw)
        la.backward = LineageIndex::FromArray(std::move(a_bw));
      if (want_a && want_fw)
        la.forward = LineageIndex::FromIndex(std::move(a_fw));
      if (want_b_side && want_bw)
        lb.backward = LineageIndex::FromArray(std::move(b_bw));
      if (want_b_side && want_fw) {
        lb.forward = pk ? LineageIndex::FromArray(std::move(b_fw_arr))
                        : LineageIndex::FromIndex(std::move(b_fw_idx));
      }
    } else if (mode == CaptureMode::kLogicIdx) {
      // Scan the annotated output to build the same end-to-end indexes.
      const auto& ann_a = result.output.column(ann_a_col).ints();
      const auto& ann_b = result.output.column(ann_a_col + 1).ints();
      RidArray a2_bw, b2_bw;
      RidIndex a2_fw(na);
      RidIndex b2_fw(nb);
      a2_bw.reserve(ann_a.size());
      b2_bw.reserve(ann_b.size());
      for (rid_t row = 0; row < ann_a.size(); ++row) {
        rid_t a = static_cast<rid_t>(ann_a[row]);
        rid_t b = static_cast<rid_t>(ann_b[row]);
        a2_bw.push_back(a);
        b2_bw.push_back(b);
        a2_fw.Append(a, row);
        b2_fw.Append(b, row);
      }
      la.backward = LineageIndex::FromArray(std::move(a2_bw));
      la.forward = LineageIndex::FromIndex(std::move(a2_fw));
      lb.backward = LineageIndex::FromArray(std::move(b2_bw));
      lb.forward = LineageIndex::FromIndex(std::move(b2_fw));
    }
  }
  retain(&result);
  return result;
}

}  // namespace smoke
