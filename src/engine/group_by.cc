#include "engine/group_by.h"

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/macros.h"
#include "engine/key_encode.h"
#include "plan/scheduler.h"
#include "refresh/refresh.h"

namespace smoke {

namespace {

/// Composite group keys use the shared injective byte encoding.
inline std::string EncodeKey(const Table& in, const std::vector<int>& cols,
                             rid_t rid) {
  return EncodeRowKey(in, cols, rid);
}

}  // namespace

struct GroupByInternals {
  /// Creates a fresh handle with bound aggregate layout.
  static std::shared_ptr<GroupByHandle> MakeHandle(const Table& input,
                                                   const GroupBySpec& spec,
                                                   const CaptureOptions& opts) {
    auto h = std::make_shared<GroupByHandle>();
    h->key_cols_ = spec.keys;
    h->int_key_ =
        spec.keys.size() == 1 &&
        input.column(static_cast<size_t>(spec.keys[0])).type() ==
            DataType::kInt64;
    if (h->int_key_) h->int_key_col_ = spec.keys[0];
    h->layout_ = AggLayout(input, spec.aggs);
    size_t expected =
        opts.hints != nullptr && opts.hints->expected_groups > 0
            ? opts.hints->expected_groups
            : 64;
    h->int_map_ = IntKeyMap(expected);
    h->str_map_.reserve(expected);
    return h;
  }

  /// γht build phase. OnNewGroup(slot, rid); OnRow(slot, rid) — both must be
  /// inlineable functors (Smoke paths) or virtual-call shims (Phys paths).
  template <typename OnNewGroup, typename OnRow>
  static void Build(const Table& input, GroupByHandle* h,
                    OnNewGroup&& on_new, OnRow&& on_row) {
    const size_t n = input.num_rows();
    const size_t stride = h->layout_.stride();
    if (h->int_key_) {
      const int64_t* keys =
          input.column(static_cast<size_t>(h->int_key_col_)).ints().data();
      for (rid_t r = 0; r < n; ++r) {
        uint32_t fresh = static_cast<uint32_t>(h->counts_.size());
        uint32_t slot = h->int_map_.FindOrInsert(keys[r], fresh);
        if (slot == IntKeyMap::kNotFound) {
          slot = fresh;
          NewGroup(h, stride, r);
          on_new(slot, r);
        }
        h->layout_.Update(h->agg_state_.data() + slot * stride, r);
        ++h->counts_[slot];
        on_row(slot, r);
      }
    } else {
      for (rid_t r = 0; r < n; ++r) {
        std::string key = EncodeKey(input, h->key_cols_, r);
        uint32_t fresh = static_cast<uint32_t>(h->counts_.size());
        auto [it, inserted] = h->str_map_.emplace(std::move(key), fresh);
        uint32_t slot = it->second;
        if (inserted) {
          NewGroup(h, stride, r);
          on_new(slot, r);
        }
        h->layout_.Update(h->agg_state_.data() + slot * stride, r);
        ++h->counts_[slot];
        on_row(slot, r);
      }
    }
  }

  static void NewGroup(GroupByHandle* h, size_t stride, rid_t r) {
    h->agg_state_.resize(h->agg_state_.size() + stride);
    h->layout_.Init(h->agg_state_.data() + h->agg_state_.size() - stride);
    h->first_rid_.push_back(r);
    h->counts_.push_back(0);
  }

  static std::vector<RidVec>& i_rids(GroupByHandle* h) { return h->i_rids_; }
  static int64_t IntKeyOf(const GroupByHandle& h, const Table& in, rid_t r) {
    return in.column(static_cast<size_t>(h.int_key_col_)).ints()[r];
  }
  static bool IsIntKey(const GroupByHandle& h) { return h.int_key_; }
  static rid_t FirstRid(const GroupByHandle* h, size_t g) {
    return h->first_rid_[g];
  }

  /// Probe-or-create for one row (refresh paths). Returns the slot and sets
  /// *created when a new group was added.
  static uint32_t FindOrCreate(GroupByHandle* h, const Table& in, rid_t r,
                               bool* created) {
    const size_t stride = h->layout_.stride();
    uint32_t fresh = static_cast<uint32_t>(h->counts_.size());
    *created = false;
    if (h->int_key_) {
      uint32_t slot = h->int_map_.FindOrInsert(IntKeyOf(*h, in, r), fresh);
      if (slot != IntKeyMap::kNotFound) return slot;
    } else {
      auto [it, inserted] =
          h->str_map_.emplace(EncodeKey(in, h->key_cols_, r), fresh);
      if (!inserted) return it->second;
    }
    NewGroup(h, stride, r);
    *created = true;
    return fresh;
  }

  static const std::vector<int>& KeyCols(const GroupByHandle* h) {
    return h->key_cols_;
  }

  // Parallel-merge access: the partition-merge step inserts merged groups
  // into the handle's key maps directly (engine/group_by.cc,
  // ParallelGroupBy below).
  static IntKeyMap& int_map(GroupByHandle* h) { return h->int_map_; }
  static std::unordered_map<std::string, uint32_t>& str_map(GroupByHandle* h) {
    return h->str_map_;
  }
  static std::vector<double>& agg_state(GroupByHandle* h) {
    return h->agg_state_;
  }
  static std::vector<rid_t>& first_rids(GroupByHandle* h) {
    return h->first_rid_;
  }

  static double* MutableAggState(GroupByHandle* h, uint32_t slot) {
    return h->agg_state_.data() + slot * h->layout_.stride();
  }
  static void ReinitAggState(GroupByHandle* h, uint32_t slot) {
    h->layout_.Init(MutableAggState(h, slot));
  }
  static std::vector<uint32_t>& counts(GroupByHandle* h) {
    return h->counts_;
  }
  /// Re-binds the layout's compiled expressions to the table's current
  /// column payloads (appends may have reallocated them).
  static void RebindLayout(GroupByHandle* h, const Table& input) {
    h->layout_.Rebind(input);
  }
};

uint32_t GroupByHandle::Probe(const Table& input, rid_t rid) const {
  if (int_key_) {
    return int_map_.Find(
        input.column(static_cast<size_t>(int_key_col_)).ints()[rid]);
  }
  auto it = str_map_.find(EncodeKey(input, key_cols_, rid));
  return it == str_map_.end() ? IntKeyMap::kNotFound : it->second;
}

namespace {

Schema NormalOutputSchema(const Table& input, const GroupBySpec& spec,
                          const AggLayout& layout) {
  Schema s;
  for (int k : spec.keys) {
    s.AddField(input.schema().field(static_cast<size_t>(k)).name,
               input.schema().field(static_cast<size_t>(k)).type);
  }
  for (size_t i = 0; i < layout.num_aggs(); ++i) {
    s.AddField(layout.OutputField(i).name, layout.OutputField(i).type);
  }
  return s;
}

/// γ'agg output scan: one row per group slot, keys from each group's
/// representative rid, aggregates finalized from the handle's state arena.
void EmitGroupByOutput(GroupByResult* result, const Table& input,
                       const GroupBySpec& spec, GroupByHandle* h) {
  const size_t num_groups = h->num_groups();
  const size_t num_keys = spec.keys.size();
  result->output = Table(NormalOutputSchema(input, spec, h->layout()));
  result->output.Reserve(num_groups);
  std::vector<Column*> agg_cols;
  for (size_t i = 0; i < h->layout().num_aggs(); ++i) {
    agg_cols.push_back(&result->output.mutable_column(num_keys + i));
  }
  const auto& state = h->agg_state();
  const size_t stride = h->layout().stride();
  for (size_t g = 0; g < num_groups; ++g) {
    for (size_t k = 0; k < num_keys; ++k) {
      result->output.mutable_column(k).AppendFrom(
          input.column(static_cast<size_t>(spec.keys[k])),
          GroupByInternals::FirstRid(h, g));
    }
    h->layout().Finalize(state.data() + g * stride, &agg_cols);
  }
}

/// Partition-parallel group-by (kNone / kInject / kDefer).
///
/// The input splits into one contiguous partition per worker; each worker
/// runs a private γ'ht over its partition (thread-local hash table, agg
/// state, i_rids lineage buffers — absolute input rids). The partials then
/// merge into the retained global handle IN PARTITION ORDER: because
/// partitions are ordered, contiguous row ranges, first-encounter order over
/// the merge equals first-encounter order of the sequential scan, so group
/// slots — and with them the output rows and every lineage index — come out
/// identical to num_threads == 1. Per-group backward lists concatenate
/// partition contributions in partition order, preserving increasing-rid
/// order. Under kDefer only the merged hash table is built;
/// FinalizeDeferredGroupBy later probes it exactly as in the sequential
/// path.
GroupByResult GroupByExecParallel(const Table& input,
                                  const std::string& input_name,
                                  const GroupBySpec& spec,
                                  const CaptureOptions& opts,
                                  TaskScheduler* sched) {
  GroupByResult result;
  result.handle = GroupByInternals::MakeHandle(input, spec, opts);
  GroupByHandle* h = result.handle.get();
  const size_t n = input.num_rows();
  const bool inject = opts.mode == CaptureMode::kInject;
  const bool want_b = inject && opts.capture_backward;
  const bool want_f = inject && opts.capture_forward;
  const AggLayout& layout = h->layout();
  const size_t stride = layout.stride();
  const bool int_key = GroupByInternals::IsIntKey(*h);
  const std::vector<int>& key_cols = GroupByInternals::KeyCols(h);
  const int64_t* keys =
      int_key ? input.column(static_cast<size_t>(key_cols[0])).ints().data()
              : nullptr;

  const std::vector<Morsel> parts =
      MakePartitions(n, static_cast<size_t>(sched->num_threads()));
  const size_t np = parts.size();

  struct Partial {
    IntKeyMap int_map{64};
    std::unordered_map<std::string, uint32_t> str_map;
    std::vector<double> agg_state;
    std::vector<rid_t> first_rid;
    std::vector<uint32_t> counts;
    std::vector<RidVec> i_rids;       // want_b: absolute input rids
    std::vector<uint32_t> local_fw;   // want_f: partition row -> local slot
    std::vector<uint32_t> to_global;  // local slot -> merged slot
  };
  std::vector<Partial> partials(np);

  // ---- phase 1: per-partition γ'ht builds (parallel) ----
  sched->ParallelFor(np, [&](size_t p, size_t) {
    Partial& part = partials[p];
    const Morsel span = parts[p];
    if (want_f) part.local_fw.resize(span.rows());
    for (rid_t r = span.begin; r < span.end; ++r) {
      uint32_t fresh = static_cast<uint32_t>(part.counts.size());
      uint32_t slot;
      bool created = false;
      if (int_key) {
        slot = part.int_map.FindOrInsert(keys[r], fresh);
        if (slot == IntKeyMap::kNotFound) {
          slot = fresh;
          created = true;
        }
      } else {
        auto [it, inserted] =
            part.str_map.emplace(EncodeKey(input, key_cols, r), fresh);
        slot = it->second;
        created = inserted;
      }
      if (created) {
        part.agg_state.resize(part.agg_state.size() + stride);
        layout.Init(part.agg_state.data() + part.agg_state.size() - stride);
        part.first_rid.push_back(r);
        part.counts.push_back(0);
        if (want_b) part.i_rids.emplace_back();
      }
      layout.Update(part.agg_state.data() + slot * stride, r);
      ++part.counts[slot];
      if (want_b) part.i_rids[slot].PushBack(r);
      if (want_f) part.local_fw[r - span.begin] = slot;
    }
  });

  // ---- phase 2: partition-order merge into the global handle ----
  auto& g_agg = GroupByInternals::agg_state(h);
  auto& g_first = GroupByInternals::first_rids(h);
  auto& g_counts = GroupByInternals::counts(h);
  auto& g_lists = GroupByInternals::i_rids(h);
  for (size_t p = 0; p < np; ++p) {
    Partial& part = partials[p];
    const size_t local_groups = part.counts.size();
    part.to_global.resize(local_groups);
    for (uint32_t ls = 0; ls < local_groups; ++ls) {
      const rid_t fr = part.first_rid[ls];
      uint32_t fresh = static_cast<uint32_t>(g_counts.size());
      uint32_t slot;
      bool created = false;
      if (int_key) {
        slot = GroupByInternals::int_map(h).FindOrInsert(keys[fr], fresh);
        if (slot == IntKeyMap::kNotFound) {
          slot = fresh;
          created = true;
        }
      } else {
        auto [it, inserted] = GroupByInternals::str_map(h).emplace(
            EncodeKey(input, key_cols, fr), fresh);
        slot = it->second;
        created = inserted;
      }
      if (created) {
        g_agg.insert(g_agg.end(),
                     part.agg_state.begin() +
                         static_cast<ptrdiff_t>(ls * stride),
                     part.agg_state.begin() +
                         static_cast<ptrdiff_t>((ls + 1) * stride));
        g_first.push_back(fr);
        g_counts.push_back(part.counts[ls]);
        if (want_b) g_lists.push_back(std::move(part.i_rids[ls]));
      } else {
        layout.Merge(g_agg.data() + slot * stride,
                     part.agg_state.data() + ls * stride);
        g_counts[slot] += part.counts[ls];
        if (want_b) {
          g_lists[slot].PushBackAll(part.i_rids[ls].data(),
                                    part.i_rids[ls].size());
        }
      }
      part.to_global[ls] = slot;
    }
  }

  // ---- phase 3: remap thread-local forward buffers to merged slots ----
  RidArray forward;
  if (want_f) {
    forward.assign(n, kInvalidRid);
    sched->ParallelFor(np, [&](size_t p, size_t) {
      Partial& part = partials[p];
      const Morsel span = parts[p];
      for (size_t i = 0; i < span.rows(); ++i) {
        forward[span.begin + i] = part.to_global[part.local_fw[i]];
      }
    });
  }

  // ---- γ'agg scan + lineage emission ----
  EmitGroupByOutput(&result, input, spec, h);
  if (opts.mode != CaptureMode::kNone) {
    TableLineage& lin = result.lineage.AddInput(input_name, &input);
    if (want_b) {
      lin.backward =
          LineageIndex::FromIndex(RidIndex::FromLists(std::move(g_lists)));
    }
    if (want_f) lin.forward = LineageIndex::FromArray(std::move(forward), n);
  }
  result.lineage.set_output_cardinality(h->num_groups());
  return result;
}

}  // namespace

GroupByResult GroupByExec(const Table& input, const std::string& input_name,
                          const GroupBySpec& spec,
                          const CaptureOptions& opts) {
  if (!spec.key_names.empty()) {
    // Name forms reaching the kernel directly (no PlanBuilder::Build pass)
    // resolve here; unknown names abort like Table::column(name).
    GroupBySpec resolved = spec;
    for (const std::string& name : resolved.key_names) {
      const int col = input.ColumnIndex(name);
      SMOKE_CHECK(col >= 0);
      resolved.keys.push_back(col);
    }
    resolved.key_names.clear();
    return GroupByExec(input, input_name, resolved, opts);
  }
  if (opts.WantsParallel()) {
    if (opts.scheduler != nullptr) {
      return GroupByExecParallel(input, input_name, spec, opts,
                                 opts.scheduler);
    }
    MorselScheduler local(opts.num_threads);
    return GroupByExecParallel(input, input_name, spec, opts, &local);
  }

  GroupByResult result;
  result.handle = GroupByInternals::MakeHandle(input, spec, opts);
  GroupByHandle* h = result.handle.get();
  const size_t n = input.num_rows();
  const CaptureMode mode = opts.mode;

  const bool phys = mode == CaptureMode::kPhysMem ||
                    mode == CaptureMode::kPhysBdb;
  const bool inject = mode == CaptureMode::kInject;
  const bool want_b = opts.capture_backward;
  const bool want_f = opts.capture_forward;

  RidArray forward;
  if (inject && want_f) forward.assign(n, kInvalidRid);

  // ---- γ'ht build phase ----
  if (inject && want_b) {
    auto& lists = GroupByInternals::i_rids(h);
    const CardinalityHints* hints = opts.hints;
    const bool tc = hints != nullptr && hints->have_per_key_counts &&
                    GroupByInternals::IsIntKey(*h);
    auto on_new = [&](uint32_t, rid_t r) {
      lists.emplace_back();
      if (tc) {
        auto it = hints->per_key_counts.find(
            GroupByInternals::IntKeyOf(*h, input, r));
        if (it != hints->per_key_counts.end()) {
          lists.back().Reserve(it->second);
        }
      }
    };
    if (want_f) {
      GroupByInternals::Build(input, h, on_new, [&](uint32_t slot, rid_t r) {
        lists[slot].PushBack(r);
        forward[r] = slot;
      });
    } else {
      GroupByInternals::Build(input, h, on_new, [&](uint32_t slot, rid_t r) {
        lists[slot].PushBack(r);
      });
    }
  } else if (inject) {  // forward only
    GroupByInternals::Build(
        input, h, [](uint32_t, rid_t) {},
        [&](uint32_t slot, rid_t r) { forward[r] = slot; });
  } else if (phys) {
    SMOKE_CHECK(opts.writer != nullptr);
    opts.writer->BeginCapture(n);
    LineageWriter* w = opts.writer;
    GroupByInternals::Build(
        input, h, [](uint32_t, rid_t) {},
        [&](uint32_t slot, rid_t r) { w->Emit(slot, r); });
  } else {
    // kNone, kDefer, kLogic*: plain build. Defer's extra state (the group's
    // output rid) is the slot itself — γagg emits groups in slot order.
    GroupByInternals::Build(input, h, [](uint32_t, rid_t) {},
                            [](uint32_t, rid_t) {});
  }

  // ---- γ'agg scan phase ----
  const size_t num_groups = h->num_groups();
  EmitGroupByOutput(&result, input, spec, h);

  if (phys) opts.writer->FinishCapture(num_groups);

  // ---- lineage index emission (every input row reaches its group) ----
  TableLineage* lin = nullptr;
  if (mode != CaptureMode::kNone) {
    lin = &result.lineage.AddInput(input_name, &input);
  }
  result.lineage.set_output_cardinality(num_groups);

  if (inject) {
    if (want_b) {
      lin->backward = LineageIndex::FromIndex(
          RidIndex::FromLists(std::move(GroupByInternals::i_rids(h))));
    }
    if (want_f) lin->forward = LineageIndex::FromArray(std::move(forward), n);
  }

  // Logic modes: materialize the denormalized annotated relation
  // (Perm's aggregation rewrite: Q ⋈ input on the group keys).
  if (mode == CaptureMode::kLogicRid || mode == CaptureMode::kLogicTup ||
      mode == CaptureMode::kLogicIdx) {
    Schema as;
    for (size_t i = 0; i < result.output.schema().num_fields(); ++i) {
      as.AddField(result.output.schema().field(i).name,
                  result.output.schema().field(i).type);
    }
    if (mode == CaptureMode::kLogicTup) {
      for (const auto& f : input.schema().fields()) {
        as.AddField("prov_" + f.name, f.type);
      }
    } else {
      as.AddField("prov_rid", DataType::kInt64);
    }
    Table annotated(as);
    annotated.Reserve(n);
    const size_t out_cols = result.output.num_columns();
    for (rid_t r = 0; r < n; ++r) {
      uint32_t slot = h->Probe(input, r);  // reuses the γht hash table
      SMOKE_DCHECK(slot != IntKeyMap::kNotFound);
      annotated.AppendRowFrom(result.output, slot);
      if (mode == CaptureMode::kLogicTup) {
        for (size_t c = 0; c < input.num_columns(); ++c) {
          annotated.mutable_column(out_cols + c)
              .AppendFrom(input.column(c), r);
        }
      } else {
        annotated.mutable_column(out_cols).AppendInt(r);
      }
    }

    if (mode == CaptureMode::kLogicIdx) {
      // Scan the annotated relation to build the same end-to-end indexes.
      RidIndex bw(num_groups);
      RidArray fw;
      if (want_f) fw.assign(n, kInvalidRid);
      const auto& ann = annotated.column(out_cols).ints();
      for (size_t row = 0; row < ann.size(); ++row) {
        rid_t r = static_cast<rid_t>(ann[row]);
        uint32_t slot = h->Probe(input, r);
        if (want_b) bw.Append(slot, r);
        if (want_f) fw[r] = slot;
      }
      if (want_b) lin->backward = LineageIndex::FromIndex(std::move(bw));
      if (want_f) lin->forward = LineageIndex::FromArray(std::move(fw), n);
    }
    result.annotated = std::move(annotated);
  }

  return result;
}

void FinalizeDeferredGroupBy(GroupByResult* result, const Table& input,
                             const CaptureOptions& opts) {
  GroupByHandle* h = result->handle.get();
  SMOKE_CHECK(h != nullptr);
  TableLineage* lin = nullptr;
  if (result->lineage.num_inputs() == 0) {
    lin = &result->lineage.AddInput("input", &input);
  } else {
    lin = &result->lineage.mutable_input(0);
  }
  if (!lin->backward.empty() || !lin->forward.empty()) return;  // already done

  const size_t n = input.num_rows();
  const size_t num_groups = h->num_groups();
  const bool want_b = opts.capture_backward;
  const bool want_f = opts.capture_forward;

  // Exact sizing from the counts collected during γ'ht (paper: "the
  // operator's input and output cardinalities are used to avoid resizing
  // costs during Zγ").
  RidIndex bw;
  RidArray fw;
  if (want_b) {
    bw.Resize(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      bw.list(g).Reserve(h->counts()[g]);
    }
  }
  if (want_f) fw.assign(n, kInvalidRid);

  if (opts.WantsParallel() && n > 0) {
    // Morsel-parallel Zγ: the retained hash table is probed read-only, so
    // partitions probe concurrently. Forward slots are disjoint writes;
    // backward lists are captured per partition and concatenated in
    // partition order, which is ascending rid order — bit-identical to the
    // sequential probe.
    TaskScheduler* sched = opts.scheduler;
    std::unique_ptr<MorselScheduler> local;
    if (sched == nullptr) {
      local = std::make_unique<MorselScheduler>(opts.num_threads);
      sched = local.get();
    }
    const std::vector<Morsel> parts =
        MakePartitions(n, static_cast<size_t>(sched->num_threads()));
    const size_t np = parts.size();
    std::vector<std::vector<RidVec>> part_bw(
        want_b ? np : 0, std::vector<RidVec>(want_b ? num_groups : 0));
    rid_t* fw_data = want_f ? fw.data() : nullptr;
    sched->ParallelFor(np, [&](size_t p, size_t) {
      const Morsel span = parts[p];
      std::vector<RidVec>* local_bw = want_b ? &part_bw[p] : nullptr;
      for (rid_t r = span.begin; r < span.end; ++r) {
        uint32_t slot = h->Probe(input, r);
        SMOKE_DCHECK(slot != IntKeyMap::kNotFound);
        if (want_b) (*local_bw)[slot].PushBack(r);
        if (want_f) fw_data[r] = slot;
      }
    });
    if (want_b) {
      for (size_t p = 0; p < np; ++p) {
        for (size_t g = 0; g < num_groups; ++g) {
          const RidVec& src = part_bw[p][g];
          if (!src.empty()) bw.list(g).PushBackAll(src.data(), src.size());
        }
      }
    }
  } else {
    for (rid_t r = 0; r < n; ++r) {
      uint32_t slot = h->Probe(input, r);
      SMOKE_DCHECK(slot != IntKeyMap::kNotFound);
      if (want_b) bw.Append(slot, r);
      if (want_f) fw[r] = slot;
    }
  }

  if (want_b) lin->backward = LineageIndex::FromIndex(std::move(bw));
  if (want_f) lin->forward = LineageIndex::FromArray(std::move(fw), n);
  result->lineage.set_output_cardinality(num_groups);
}


// ---------------------------------------------------------------------------
// Refresh and forward propagation (refresh/refresh.h). Implemented here for
// access to GroupByInternals.
// ---------------------------------------------------------------------------

namespace {

/// Rewrites the finalized aggregate values of output row `g` in place.
void RewriteOutputRow(Table* output, GroupByHandle* h, uint32_t g,
                      size_t num_keys) {
  const AggLayout& layout = h->layout();
  const double* state = GroupByInternals::MutableAggState(h, g);
  for (size_t i = 0; i < layout.num_aggs(); ++i) {
    double v = layout.FinalValue(state, i);
    Column& col = output->mutable_column(num_keys + i);
    if (col.type() == DataType::kInt64) {
      col.mutable_ints()[g] = static_cast<int64_t>(v);
    } else {
      col.mutable_doubles()[g] = v;
    }
  }
}

/// Appends a fresh output row for a newly created group.
void AppendOutputRow(Table* output, GroupByHandle* h, const Table& input,
                     uint32_t g, const std::vector<int>& key_cols) {
  rid_t rep = GroupByInternals::FirstRid(h, g);
  for (size_t k = 0; k < key_cols.size(); ++k) {
    output->mutable_column(k).AppendFrom(
        input.column(static_cast<size_t>(key_cols[k])), rep);
  }
  const AggLayout& layout = h->layout();
  std::vector<Column*> agg_cols;
  for (size_t i = 0; i < layout.num_aggs(); ++i) {
    agg_cols.push_back(&output->mutable_column(key_cols.size() + i));
  }
  layout.Finalize(GroupByInternals::MutableAggState(h, g), &agg_cols);
}

/// What single-kernel refresh maintains: the γht handle and the raw
/// Inject-captured lineage (backward rid index, forward rid array).
Status CheckInjectGroupBy(const GroupByResult& result) {
  if (result.handle == nullptr || result.lineage.num_inputs() != 1 ||
      result.lineage.input(0).backward.kind() != LineageIndex::Kind::kIndex ||
      result.lineage.input(0).forward.kind() != LineageIndex::Kind::kArray) {
    return Status::InvalidArgument(
        "group-by refresh needs the γht handle and raw Inject-captured "
        "lineage");
  }
  return Status::OK();
}

}  // namespace

GroupByDelta GroupByDeltaAppend(GroupByHandle* h, const Table& input,
                                rid_t first_new_rid, Table* output) {
  SMOKE_CHECK(h != nullptr);
  // Appends may have reallocated the column payloads the compiled
  // aggregate expressions point into.
  GroupByInternals::RebindLayout(h, input);
  GroupByDelta d;
  d.old_num_groups = h->num_groups();
  const size_t n = input.num_rows();
  const std::vector<int>& key_cols = GroupByInternals::KeyCols(h);
  std::vector<uint8_t> seen(h->num_groups(), 0);
  if (n > first_new_rid) d.slots.reserve(n - first_new_rid);
  for (rid_t r = first_new_rid; r < n; ++r) {
    bool created = false;
    uint32_t g = GroupByInternals::FindOrCreate(h, input, r, &created);
    h->layout().Update(GroupByInternals::MutableAggState(h, g), r);
    ++GroupByInternals::counts(h)[g];
    if (created) {
      seen.push_back(0);
      AppendOutputRow(output, h, input, g, key_cols);
    }
    d.slots.push_back(g);
    if (!seen[g]) {
      seen[g] = 1;
      d.touched.push_back(g);
    }
  }
  for (uint32_t g : d.touched) {
    RewriteOutputRow(output, h, g, key_cols.size());
  }
  return d;
}

Status RefreshAppend(GroupByResult* result, const Table& input,
                     rid_t first_new_rid, std::vector<rid_t>* changed) {
  SMOKE_RETURN_NOT_OK(CheckInjectGroupBy(*result));
  TableLineage& lin = result->lineage.mutable_input(0);
  RidArray& fw = lin.forward.mutable_array();
  if (first_new_rid != fw.size() || first_new_rid > input.num_rows()) {
    return Status::InvalidArgument(
        "first_new_rid " + std::to_string(first_new_rid) +
        " is not the end of the " + std::to_string(fw.size()) +
        " rows already folded");
  }
  GroupByDelta d = GroupByDeltaAppend(result->handle.get(), input,
                                      first_new_rid, &result->output);
  RidIndex& bw = lin.backward.mutable_index();
  bw.Resize(result->handle->num_groups());
  fw.resize(input.num_rows(), kInvalidRid);
  for (size_t j = 0; j < d.slots.size(); ++j) {
    const rid_t r = first_new_rid + static_cast<rid_t>(j);
    bw.Append(d.slots[j], r);
    fw[r] = d.slots[j];
  }
  result->lineage.set_output_cardinality(result->handle->num_groups());
  *changed = std::move(d.touched);
  return Status::OK();
}

Status ForwardPropagate(GroupByResult* result, const Table& input,
                        const std::vector<rid_t>& updated_rids,
                        std::vector<rid_t>* affected) {
  SMOKE_RETURN_NOT_OK(CheckInjectGroupBy(*result));
  GroupByHandle* h = result->handle.get();
  const TableLineage& lin = result->lineage.input(0);
  const RidArray& fw = lin.forward.array();
  const RidIndex& bw = lin.backward.index();
  for (rid_t r : updated_rids) {
    if (r >= fw.size()) {
      return Status::InvalidArgument("updated rid " + std::to_string(r) +
                                     " out of range");
    }
  }
  GroupByInternals::RebindLayout(h, input);
  const size_t num_keys = result->output.num_columns() -
                          h->layout().num_aggs();

  // Forward-trace the updated rows to the affected groups.
  std::vector<uint8_t> seen(h->num_groups(), 0);
  affected->clear();
  for (rid_t r : updated_rids) {
    rid_t g = fw[r];
    if (g == kInvalidRid || seen[g]) continue;
    seen[g] = 1;
    affected->push_back(g);
  }

  // Recompute each affected group from its backward lineage (secondary
  // index scan — the affected subset, not the whole relation).
  for (rid_t g : *affected) {
    GroupByInternals::ReinitAggState(h, g);
    double* state = GroupByInternals::MutableAggState(h, g);
    for (rid_t r : bw.list(g)) h->layout().Update(state, r);
    RewriteOutputRow(&result->output, h, g, num_keys);
  }
  return Status::OK();
}

}  // namespace smoke
