#include "engine/spja.h"

#include <unordered_map>

#include "common/hash.h"
#include "common/macros.h"
#include "engine/key_encode.h"
#include "plan/executor.h"
#include "plan/plan.h"

namespace smoke {

namespace {

constexpr size_t kMaxDims = SPJAQuery::kMaxDims;

/// Bound accessor for one dimension's fk source column.
struct FkRef {
  const int64_t* col = nullptr;
  int src = ColRef::kFact;  // kFact: index by fact rid; else by dim_rids[src]
};

/// Encodes composite group keys from the current (fact rid, dim rids).
struct KeyBinder {
  struct Part {
    const Column* col;
    int table;  // ColRef::kFact or dim index
  };
  std::vector<Part> parts;
  bool int_fast = false;
  const int64_t* fast_col = nullptr;

  void Bind(const SPJAQuery& q) {
    for (const ColRef& ref : q.group_by) {
      const Table* t = ref.table == ColRef::kFact
                           ? q.fact
                           : q.dims[static_cast<size_t>(ref.table)].table;
      parts.push_back({&t->column(static_cast<size_t>(ref.col)), ref.table});
    }
    int_fast = parts.size() == 1 && parts[0].table == ColRef::kFact &&
               parts[0].col->type() == DataType::kInt64;
    if (int_fast) fast_col = parts[0].col->ints().data();
  }

  std::string StrKey(rid_t fact_rid, const rid_t* dim_rids) const {
    std::string key;
    key.reserve(parts.size() * 8);
    for (const Part& p : parts) {
      rid_t rid = p.table == ColRef::kFact
                      ? fact_rid
                      : dim_rids[static_cast<size_t>(p.table)];
      switch (p.col->type()) {
        case DataType::kInt64: {
          int64_t v = p.col->ints()[rid];
          key.append(reinterpret_cast<const char*>(&v), sizeof(v));
          break;
        }
        case DataType::kFloat64: {
          double v = p.col->doubles()[rid];
          key.append(reinterpret_cast<const char*>(&v), sizeof(v));
          break;
        }
        case DataType::kString: {
          const std::string& v = p.col->strings()[rid];
          uint32_t len = static_cast<uint32_t>(v.size());
          key.append(reinterpret_cast<const char*>(&len), sizeof(len));
          key.append(v);
          break;
        }
      }
    }
    return key;
  }
};

}  // namespace

SPJAResult SPJAExec(const SPJAQuery& q, const CaptureOptions& opts,
                    const SPJAPushdown* push) {
  // Canonical plan form: one SpjaBlock node over scans of the fact and
  // dimension tables, executed through the composable plan API.
  PlanBuilder builder;
  int root = builder.SpjaBlock(q, push != nullptr ? *push : SPJAPushdown{});
  LogicalPlan plan;
  Status st = builder.Build(root, &plan);
  SMOKE_CHECK(st.ok());
  PlanResult pr;
  st = ExecutePlan(plan, opts, &pr);
  SMOKE_CHECK(st.ok());
  return std::move(pr);  // the plan result is-a SPJAResult
}

namespace internal {

SPJAResult SPJAExecFused(const SPJAQuery& q, const CaptureOptions& opts,
                         const SPJAPushdown* push) {
  SMOKE_CHECK(q.fact != nullptr);
  // Plan validation (optimizer/schema_infer.cc) rejects more dimensions,
  // fks that reference a later dimension, and non-int64 pk / fk columns.
  SMOKE_DCHECK(q.dims.size() <= kMaxDims);
  const Table& fact = *q.fact;
  const size_t n = fact.num_rows();
  const size_t nd = q.dims.size();
  const size_t nt = 1 + nd;
  const CaptureMode mode = opts.mode;
  SMOKE_CHECK(mode != CaptureMode::kPhysMem && mode != CaptureMode::kPhysBdb);
  const bool has_push = push != nullptr && !push->empty();
  if (has_push) SMOKE_CHECK(mode == CaptureMode::kInject);

  SPJAResult result;
  if (has_push) result.applied_pushdown = *push;

  // ---- pipeline breakers: build filtered dimension hash tables ----
  // The hash-table payload *is* the dimension rid — the lineage annotation
  // of the build side comes for free (reuse, P4).
  std::vector<IntKeyMap> dim_maps;
  dim_maps.reserve(nd);
  std::vector<FkRef> fks(nd);
  for (size_t j = 0; j < nd; ++j) {
    const SPJADim& dim = q.dims[j];
    const Table& dt = *dim.table;
    dim_maps.emplace_back(dt.num_rows());
    PredicateList filt(dt, dim.filters);
    const auto& pks = dt.column(static_cast<size_t>(dim.pk_col)).ints();
    for (rid_t r = 0; r < dt.num_rows(); ++r) {
      if (!filt.Eval(r)) continue;
      dim_maps[j].Insert(pks[r], r);
    }
    const Table* src_table =
        dim.fk.table == ColRef::kFact
            ? q.fact
            : q.dims[static_cast<size_t>(dim.fk.table)].table;
    SMOKE_DCHECK(dim.fk.table < static_cast<int>(j));  // joined in order
    fks[j].col =
        src_table->column(static_cast<size_t>(dim.fk.col)).ints().data();
    fks[j].src = dim.fk.table;
  }

  PredicateList fact_filt(fact, q.fact_filters);

  // ---- group-by state ----
  std::vector<const Table*> tables;
  tables.push_back(q.fact);
  for (const auto& d : q.dims) tables.push_back(d.table);
  AggLayout layout(tables, q.aggs);
  const size_t stride = layout.stride();

  KeyBinder keys;
  keys.Bind(q);
  size_t expected = opts.hints && opts.hints->expected_groups
                        ? opts.hints->expected_groups
                        : 1024;
  IntKeyMap gmap(expected);
  std::unordered_map<std::string, uint32_t> smap;
  smap.reserve(expected);

  std::vector<double> agg_state;
  std::vector<uint32_t> counts;
  std::vector<rid_t> first_fact;
  std::vector<std::vector<rid_t>> first_dim(nd);

  // ---- capture state ----
  std::vector<uint8_t> want_tbl(nt, 0);
  want_tbl[0] = opts.WantsTable(q.fact_name);
  for (size_t j = 0; j < nd; ++j) want_tbl[1 + j] = opts.WantsTable(q.dims[j].name);
  const bool want_bw = opts.capture_backward;
  const bool want_fw = opts.capture_forward;
  const bool inject = mode == CaptureMode::kInject;
  const bool defer = mode == CaptureMode::kDefer;
  const bool logic = mode == CaptureMode::kLogicRid ||
                     mode == CaptureMode::kLogicTup ||
                     mode == CaptureMode::kLogicIdx;

  std::vector<std::vector<RidVec>> bw(nt);  // [table][group] rid lists
  RidArray fact_fw;
  // Dimension forwards stay 1:1 arrays; a dimension row that reaches a
  // second group gets an overflow list (Q3/Q10's orders never do).
  std::vector<ForwardIndexBuilder> dim_fw(nd);
  if (inject && want_fw) {
    if (want_tbl[0]) fact_fw.assign(n, kInvalidRid);
    for (size_t j = 0; j < nd; ++j) {
      if (want_tbl[1 + j]) {
        dim_fw[j] = ForwardIndexBuilder(q.dims[j].table->num_rows());
      }
    }
  }

  // ---- push-down state ----
  PredicateList sel_push;
  bool use_sel = false, use_skip = false, use_cube = false;
  const uint32_t* skip_codes = nullptr;
  if (has_push) {
    if (!push->sel_fact.empty()) {
      sel_push = PredicateList(fact, push->sel_fact);
      use_sel = true;
    }
    if (!push->skip_cols.empty()) {
      result.skip_dict = BuildDictionary(fact, push->skip_cols);
      result.skip_index.SetNumCodes(result.skip_dict.num_codes);
      skip_codes = result.skip_dict.codes.data();
      use_skip = true;
    }
    if (!push->cube_cols.empty()) {
      result.cube.Init(fact, push->cube_cols, push->cube_aggs);
      use_cube = true;
    }
  }

  // ---- helpers ----
  auto new_group = [&](rid_t r, const rid_t* dim_rids) -> uint32_t {
    uint32_t g = static_cast<uint32_t>(counts.size());
    agg_state.resize(agg_state.size() + stride);
    layout.Init(agg_state.data() + g * stride);
    counts.push_back(0);
    first_fact.push_back(r);
    for (size_t j = 0; j < nd; ++j) first_dim[j].push_back(dim_rids[j]);
    if (inject && want_bw) {
      for (size_t t = 0; t < nt; ++t) {
        if (want_tbl[t] && !(t == 0 && use_skip)) bw[t].emplace_back();
      }
    }
    if (use_skip) result.skip_index.AddOutput();
    if (use_cube) result.cube.AddGroup();
    return g;
  };

  auto find_or_create = [&](rid_t r, const rid_t* dim_rids) -> uint32_t {
    if (keys.int_fast) {
      uint32_t fresh = static_cast<uint32_t>(counts.size());
      uint32_t g = gmap.FindOrInsert(keys.fast_col[r], fresh);
      if (g == IntKeyMap::kNotFound) g = new_group(r, dim_rids);
      return g;
    }
    std::string key = keys.StrKey(r, dim_rids);
    auto [it, inserted] =
        smap.emplace(std::move(key), static_cast<uint32_t>(counts.size()));
    if (inserted) return new_group(r, dim_rids);
    return it->second;
  };

  auto find_group = [&](rid_t r, const rid_t* dim_rids) -> uint32_t {
    if (keys.int_fast) return gmap.Find(keys.fast_col[r]);
    auto it = smap.find(keys.StrKey(r, dim_rids));
    return it == smap.end() ? IntKeyMap::kNotFound : it->second;
  };

  auto for_each_passing = [&](auto&& fn) {
    rid_t dim_rids[kMaxDims];
    for (rid_t r = 0; r < n; ++r) {
      if (!fact_filt.Eval(r)) continue;
      bool ok = true;
      for (size_t j = 0; j < nd; ++j) {
        int64_t fkv = fks[j].src == ColRef::kFact
                          ? fks[j].col[r]
                          : fks[j].col[dim_rids[fks[j].src]];
        uint32_t d = dim_maps[j].Find(fkv);
        if (d == IntKeyMap::kNotFound) {
          ok = false;
          break;
        }
        dim_rids[j] = d;
      }
      if (!ok) continue;
      fn(r, dim_rids);
    }
  };

  // ---- pass 1: pipelined scan + probes + final aggregation ----
  if (inject) {
    for_each_passing([&](rid_t r, const rid_t* dim_rids) {
      uint32_t g = find_or_create(r, dim_rids);
      rid_t rids[kMaxDims + 1];
      rids[0] = r;
      for (size_t j = 0; j < nd; ++j) rids[1 + j] = dim_rids[j];
      layout.UpdateMulti(agg_state.data() + g * stride, rids);
      ++counts[g];
      if (want_bw) {
        const bool pass_sel = !use_sel || sel_push.Eval(r);
        if (want_tbl[0] && pass_sel) {
          if (use_skip) result.skip_index.Append(g, skip_codes[r], r);
          else bw[0][g].PushBack(r);
        }
        for (size_t j = 0; j < nd; ++j) {
          if (want_tbl[1 + j]) bw[1 + j][g].PushBack(dim_rids[j]);
        }
      }
      if (want_fw) {
        if (want_tbl[0]) fact_fw[r] = g;
        for (size_t j = 0; j < nd; ++j) {
          if (!want_tbl[1 + j]) continue;
          dim_fw[j].Add(dim_rids[j], g);
        }
      }
      if (use_cube) result.cube.Update(g, r);
    });
  } else {
    // Baseline / Defer / Logic: clean pipeline, no capture in the hot loop.
    for_each_passing([&](rid_t r, const rid_t* dim_rids) {
      uint32_t g = find_or_create(r, dim_rids);
      rid_t rids[kMaxDims + 1];
      rids[0] = r;
      for (size_t j = 0; j < nd; ++j) rids[1 + j] = dim_rids[j];
      layout.UpdateMulti(agg_state.data() + g * stride, rids);
      ++counts[g];
    });
  }

  // ---- γagg: materialize the output (groups in slot order) ----
  const size_t num_groups = counts.size();
  {
    Schema os;
    for (const ColRef& ref : q.group_by) {
      const Table* t = ref.table == ColRef::kFact
                           ? q.fact
                           : q.dims[static_cast<size_t>(ref.table)].table;
      std::string name = t->schema().field(static_cast<size_t>(ref.col)).name;
      if (os.IndexOf(name) >= 0) name += "_2";
      os.AddField(name, t->schema().field(static_cast<size_t>(ref.col)).type);
    }
    for (size_t i = 0; i < layout.num_aggs(); ++i) {
      os.AddField(layout.OutputField(i).name, layout.OutputField(i).type);
    }
    result.output = Table(os);
    result.output.Reserve(num_groups);
    std::vector<Column*> agg_cols;
    for (size_t i = 0; i < layout.num_aggs(); ++i) {
      agg_cols.push_back(
          &result.output.mutable_column(q.group_by.size() + i));
    }
    for (size_t g = 0; g < num_groups; ++g) {
      for (size_t k = 0; k < q.group_by.size(); ++k) {
        const ColRef& ref = q.group_by[k];
        const Table* t = ref.table == ColRef::kFact
                             ? q.fact
                             : q.dims[static_cast<size_t>(ref.table)].table;
        rid_t rep = ref.table == ColRef::kFact
                        ? first_fact[g]
                        : first_dim[static_cast<size_t>(ref.table)][g];
        result.output.mutable_column(k).AppendFrom(
            t->column(static_cast<size_t>(ref.col)), rep);
      }
      layout.Finalize(agg_state.data() + g * stride, &agg_cols);
    }
  }
  result.output_cardinality = num_groups;
  result.group_counts = counts;

  // ---- Defer: second pass with exactly-sized indexes ----
  if (defer) {
    if (want_bw) {
      for (size_t t = 0; t < nt; ++t) {
        if (!want_tbl[t]) continue;
        bw[t].resize(num_groups);
        for (size_t g = 0; g < num_groups; ++g) bw[t][g].Reserve(counts[g]);
      }
    }
    if (want_fw) {
      if (want_tbl[0]) fact_fw.assign(n, kInvalidRid);
      for (size_t j = 0; j < nd; ++j) {
        if (want_tbl[1 + j]) {
          dim_fw[j] = ForwardIndexBuilder(q.dims[j].table->num_rows());
        }
      }
    }
    for_each_passing([&](rid_t r, const rid_t* dim_rids) {
      uint32_t g = find_group(r, dim_rids);
      SMOKE_DCHECK(g != IntKeyMap::kNotFound);
      if (want_bw) {
        if (want_tbl[0]) bw[0][g].PushBack(r);
        for (size_t j = 0; j < nd; ++j) {
          if (want_tbl[1 + j]) bw[1 + j][g].PushBack(dim_rids[j]);
        }
      }
      if (want_fw) {
        if (want_tbl[0]) fact_fw[r] = g;
        for (size_t j = 0; j < nd; ++j) {
          if (!want_tbl[1 + j]) continue;
          dim_fw[j].Add(dim_rids[j], g);
        }
      }
    });
  }

  // ---- Logic modes: materialize the denormalized annotated relation ----
  if (logic) {
    Schema as = result.output.schema();
    const size_t base_cols = as.num_fields();
    if (mode == CaptureMode::kLogicTup) {
      for (size_t t = 0; t < nt; ++t) {
        const Table* tt = tables[t];
        const std::string& tn = t == 0 ? q.fact_name : q.dims[t - 1].name;
        for (const auto& f : tt->schema().fields()) {
          as.AddField("prov_" + tn + "_" + f.name, f.type);
        }
      }
    } else {
      for (size_t t = 0; t < nt; ++t) {
        const std::string& tn = t == 0 ? q.fact_name : q.dims[t - 1].name;
        as.AddField("prov_rid_" + tn, DataType::kInt64);
      }
    }
    Table annotated(as);
    for_each_passing([&](rid_t r, const rid_t* dim_rids) {
      uint32_t g = find_group(r, dim_rids);
      SMOKE_DCHECK(g != IntKeyMap::kNotFound);
      annotated.AppendRowFrom(result.output, g);
      if (mode == CaptureMode::kLogicTup) {
        size_t c = base_cols;
        annotated.AppendRowFrom(fact, r, c);
        c += fact.num_columns();
        for (size_t j = 0; j < nd; ++j) {
          annotated.AppendRowFrom(*q.dims[j].table, dim_rids[j], c);
          c += q.dims[j].table->num_columns();
        }
      } else {
        annotated.mutable_column(base_cols).AppendInt(r);
        for (size_t j = 0; j < nd; ++j) {
          annotated.mutable_column(base_cols + 1 + j).AppendInt(dim_rids[j]);
        }
      }
    });

    if (mode == CaptureMode::kLogicIdx) {
      // Scan the annotated relation to construct end-to-end indexes.
      for (size_t t = 0; t < nt; ++t) bw[t].resize(num_groups);
      if (want_fw) {
        fact_fw.assign(n, kInvalidRid);
        for (size_t j = 0; j < nd; ++j) {
          dim_fw[j] = ForwardIndexBuilder(q.dims[j].table->num_rows());
        }
      }
      const size_t rows = annotated.num_rows();
      std::vector<const int64_t*> prov(nt);
      for (size_t t = 0; t < nt; ++t) {
        prov[t] = annotated.column(base_cols + t).ints().data();
      }
      rid_t dim_rids[kMaxDims];
      for (rid_t row = 0; row < rows; ++row) {
        rid_t r = static_cast<rid_t>(prov[0][row]);
        for (size_t j = 0; j < nd; ++j) {
          dim_rids[j] = static_cast<rid_t>(prov[1 + j][row]);
        }
        uint32_t g = find_group(r, dim_rids);
        if (want_bw) {
          bw[0][g].PushBack(r);
          for (size_t j = 0; j < nd; ++j) bw[1 + j][g].PushBack(dim_rids[j]);
        }
        if (want_fw) {
          fact_fw[r] = g;
          for (size_t j = 0; j < nd; ++j) {
            dim_fw[j].Add(dim_rids[j], g);
          }
        }
      }
    }
    result.annotated = std::move(annotated);
  }

  // ---- emit lineage ----
  if (mode != CaptureMode::kNone) {
    TableLineage& lf = result.lineage.AddInput(q.fact_name, q.fact);
    result.lineage.set_output_cardinality(num_groups);
    const bool built = inject || defer || mode == CaptureMode::kLogicIdx;
    auto backward_of = [&bw](size_t t) {
      return LineageIndex::FromIndex(RidIndex::FromLists(std::move(bw[t])));
    };
    if (built && want_tbl[0]) {
      if (want_bw && !use_skip) lf.backward = backward_of(0);
      if (want_fw) {
        // Every passing fact row maps to its group: the freeze decides
        // from this count without a pass over the array.
        size_t passing = 0;
        for (uint32_t c : counts) passing += c;
        lf.forward = LineageIndex::FromArray(std::move(fact_fw), passing);
      }
    }
    for (size_t j = 0; j < nd; ++j) {
      TableLineage& ld = result.lineage.AddInput(q.dims[j].name,
                                                 q.dims[j].table);
      if (built && want_tbl[1 + j]) {
        if (want_bw) ld.backward = backward_of(1 + j);
        if (want_fw) ld.forward = dim_fw[j].Finish();
      }
    }
  }

  return result;
}

}  // namespace internal

}  // namespace smoke
