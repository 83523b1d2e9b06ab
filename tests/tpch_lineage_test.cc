// TPC-H Q1/Q3/Q10/Q12 lineage against a brute-force reference: every
// backward and forward trace of every rid, through SmokeEngine::ExecuteQuery
// and through a plain SpjaBlock plan, under Smoke-I, Smoke-D and Logic-Idx,
// raw and adaptive-encoded. Also pins the physical forward kinds the 1:1
// rule gives each dimension (a forward index is a RidArray unless some row
// reaches two groups).
#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/smoke_engine.h"
#include "engine/spja.h"
#include "lineage/store/lineage_store.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "workloads/tpch.h"

namespace smoke {
namespace {

/// Row-at-a-time predicate evaluation over Values (independent of the
/// engine's bound PredicateList).
bool RefEval(const Table& t, rid_t r, const Predicate& p) {
  const Value v = t.GetValue(r, static_cast<size_t>(p.col));
  if (p.op == CmpOp::kIn) {
    if (p.type == DataType::kString) {
      const std::string& s = std::get<std::string>(v);
      return std::find(p.in_strs.begin(), p.in_strs.end(), s) !=
             p.in_strs.end();
    }
    const int64_t i = std::get<int64_t>(v);
    return std::find(p.in_ints.begin(), p.in_ints.end(), i) !=
           p.in_ints.end();
  }
  Value c;
  if (p.rhs_col >= 0) {
    c = t.GetValue(r, static_cast<size_t>(p.rhs_col));
  } else if (p.type == DataType::kInt64) {
    c = p.ival;
  } else if (p.type == DataType::kFloat64) {
    c = p.dval;
  } else {
    c = p.sval;
  }
  switch (p.op) {
    case CmpOp::kLt: return v < c;
    case CmpOp::kLe: return v <= c;
    case CmpOp::kGt: return v > c;
    case CmpOp::kGe: return v >= c;
    case CmpOp::kEq: return v == c;
    case CmpOp::kNe: return v != c;
    case CmpOp::kIn: break;
  }
  return false;
}

std::string Render(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return std::to_string(*d);
  return std::get<std::string>(v);
}

/// Expected lineage of one SPJA block: per table (fact, then dims), the
/// backward list of every output row in fact-scan order (dimension lists
/// aligned with the fact list, duplicates kept) and the sorted set of
/// output rows every input row reaches.
struct RefLineage {
  std::vector<std::vector<std::vector<rid_t>>> backward;  // [table][out]
  std::vector<std::vector<std::vector<rid_t>>> forward;   // [table][in]
};

RefLineage BruteForce(const SPJAQuery& q, const Table& output) {
  const size_t nd = q.dims.size();
  std::vector<const Table*> tables = {q.fact};
  for (const SPJADim& d : q.dims) tables.push_back(d.table);

  std::map<std::string, rid_t> out_of_key;
  for (rid_t o = 0; o < output.num_rows(); ++o) {
    std::string key;
    for (size_t k = 0; k < q.group_by.size(); ++k) {
      key += Render(output.GetValue(o, k)) + "|";
    }
    out_of_key[key] = o;
  }
  std::vector<std::unordered_map<int64_t, rid_t>> pk(nd);
  for (size_t j = 0; j < nd; ++j) {
    const auto& keys =
        q.dims[j].table->column(static_cast<size_t>(q.dims[j].pk_col)).ints();
    for (rid_t r = 0; r < keys.size(); ++r) pk[j][keys[r]] = r;
  }

  RefLineage ref;
  ref.backward.assign(1 + nd,
                      std::vector<std::vector<rid_t>>(output.num_rows()));
  ref.forward.resize(1 + nd);
  for (size_t t = 0; t <= nd; ++t) {
    ref.forward[t].resize(tables[t]->num_rows());
  }
  for (rid_t r = 0; r < q.fact->num_rows(); ++r) {
    bool pass = true;
    for (const Predicate& p : q.fact_filters) pass = pass && RefEval(*q.fact, r, p);
    std::vector<rid_t> rids = {r};  // [fact, dim0, ...]
    for (size_t j = 0; pass && j < nd; ++j) {
      const SPJADim& d = q.dims[j];
      const size_t src = static_cast<size_t>(d.fk.table + 1);
      const int64_t fk = std::get<int64_t>(
          tables[src]->GetValue(rids[src], static_cast<size_t>(d.fk.col)));
      auto it = pk[j].find(fk);
      pass = it != pk[j].end();
      for (const Predicate& p : d.filters) {
        pass = pass && RefEval(*d.table, it->second, p);
      }
      if (pass) rids.push_back(it->second);
    }
    if (!pass) continue;
    std::string key;
    for (const ColRef& c : q.group_by) {
      const size_t t = static_cast<size_t>(c.table + 1);
      key += Render(tables[t]->GetValue(rids[t], static_cast<size_t>(c.col))) +
             "|";
    }
    auto it = out_of_key.find(key);
    EXPECT_NE(it, out_of_key.end()) << "no output group " << key;
    if (it == out_of_key.end()) continue;
    for (size_t t = 0; t <= nd; ++t) {
      ref.backward[t][it->second].push_back(rids[t]);
      ref.forward[t][rids[t]].push_back(it->second);
    }
  }
  for (auto& per_table : ref.forward) {
    for (auto& l : per_table) {
      std::sort(l.begin(), l.end());
      l.erase(std::unique(l.begin(), l.end()), l.end());
    }
  }
  return ref;
}

void ExpectLineageEquals(const QueryLineage& lin, const SPJAQuery& q,
                         const RefLineage& ref, const std::string& ctx) {
  std::vector<std::string> names = {q.fact_name};
  for (const SPJADim& d : q.dims) names.push_back(d.name);
  ASSERT_EQ(lin.num_inputs(), names.size()) << ctx;
  std::vector<rid_t> got;
  for (size_t t = 0; t < names.size(); ++t) {
    const TableLineage& tl = lin.input(t);
    ASSERT_EQ(tl.table_name, names[t]) << ctx;
    ASSERT_EQ(tl.backward.size(), ref.backward[t].size()) << ctx << names[t];
    for (rid_t o = 0; o < tl.backward.size(); ++o) {
      got.clear();
      tl.backward.TraceInto(o, &got);
      ASSERT_EQ(got, ref.backward[t][o])
          << ctx << " backward " << names[t] << " out " << o;
    }
    ASSERT_EQ(tl.forward.size(), ref.forward[t].size()) << ctx << names[t];
    for (rid_t i = 0; i < tl.forward.size(); ++i) {
      got.clear();
      tl.forward.TraceInto(i, &got);
      std::sort(got.begin(), got.end());
      got.erase(std::unique(got.begin(), got.end()), got.end());
      ASSERT_EQ(got, ref.forward[t][i])
          << ctx << " forward " << names[t] << " in " << i;
    }
  }
}

class TpchLineageTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new tpch::Database(tpch::Generate(0.01));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  struct Named {
    std::string name;
    SPJAQuery query;
  };
  static std::vector<Named> Queries() {
    return {{"Q1", tpch::MakeQ1(*db_)},
            {"Q3", tpch::MakeQ3(*db_)},
            {"Q10", tpch::MakeQ10(*db_)},
            {"Q12", tpch::MakeQ12(*db_)}};
  }

  static PlanResult RunPlan(const SPJAQuery& q, const CaptureOptions& opts) {
    PlanBuilder b;
    LogicalPlan plan;
    EXPECT_TRUE(b.Build(b.SpjaBlock(q), &plan).ok());
    PlanResult pr;
    EXPECT_TRUE(ExecutePlan(plan, opts, &pr).ok());
    return pr;
  }

  static tpch::Database* db_;
};
tpch::Database* TpchLineageTest::db_ = nullptr;

TEST_F(TpchLineageTest, EveryTraceEqualsBruteForce) {
  for (const Named& nq : Queries()) {
    const RefLineage ref =
        BruteForce(nq.query, RunPlan(nq.query, CaptureOptions::None()).output);
    for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer,
                             CaptureMode::kLogicIdx}) {
      for (LineageCodec codec : {LineageCodec::kRaw, LineageCodec::kAdaptive}) {
        CaptureOptions opts = CaptureOptions::Mode(mode);
        opts.lineage_codec = codec;
        const std::string ctx = nq.name + "/" + CaptureModeName(mode) + "/" +
                                LineageCodecName(codec);

        // Through the engine facade (retained and store-encoded).
        SmokeEngine engine;
        ASSERT_TRUE(engine.ExecuteQuery(nq.name, nq.query, opts).ok()) << ctx;
        const SPJAResult* r = nullptr;
        ASSERT_TRUE(engine.GetResultObject(nq.name, &r).ok()) << ctx;
        ExpectLineageEquals(r->lineage, nq.query, ref, ctx + "/engine");

        // Through a plain SpjaBlock plan, encoded like the store does.
        PlanResult pr = RunPlan(nq.query, opts);
        EncodeQueryLineage(&pr.lineage, codec);
        ExpectLineageEquals(pr.lineage, nq.query, ref, ctx + "/plan");
      }
    }
  }
}

TEST_F(TpchLineageTest, DimensionForwardIsOneToOneUnlessARowReachesTwoGroups) {
  auto forward_kind = [](const PlanResult& pr, const std::string& rel) {
    const int i = pr.lineage.FindInput(rel);
    EXPECT_GE(i, 0) << rel;
    return pr.lineage.input(static_cast<size_t>(i)).forward.kind();
  };
  for (CaptureMode mode : {CaptureMode::kInject, CaptureMode::kDefer,
                           CaptureMode::kLogicIdx}) {
    const CaptureOptions opts = CaptureOptions::Mode(mode);
    PlanResult q3 = RunPlan(tpch::MakeQ3(*db_), opts);
    PlanResult q10 = RunPlan(tpch::MakeQ10(*db_), opts);
    PlanResult q12 = RunPlan(tpch::MakeQ12(*db_), opts);
    // Q3 and Q10 group by the order: no order reaches two groups.
    EXPECT_EQ(forward_kind(q3, "orders"), LineageIndex::Kind::kArray);
    EXPECT_EQ(forward_kind(q10, "orders"), LineageIndex::Kind::kArray);
    // Q10 groups by the customer too.
    EXPECT_EQ(forward_kind(q10, "customer"), LineageIndex::Kind::kArray);
    // A Q12 order's lineitems span ship modes; a Q3 customer places
    // several qualifying orders.
    EXPECT_EQ(forward_kind(q12, "orders"), LineageIndex::Kind::kIndex);
    EXPECT_EQ(forward_kind(q3, "customer"), LineageIndex::Kind::kIndex);
    // The fact side is 1:1 as always.
    EXPECT_EQ(forward_kind(q3, "lineitem"), LineageIndex::Kind::kArray);
  }
}

TEST_F(TpchLineageTest, RetainedIndexesCarryNoGrowthSlack) {
  for (const Named& nq : Queries()) {
    PlanResult pr = RunPlan(nq.query, CaptureOptions::Inject());
    for (size_t t = 0; t < pr.lineage.num_inputs(); ++t) {
      const TableLineage& tl = pr.lineage.input(t);
      for (const LineageIndex* idx : {&tl.backward, &tl.forward}) {
        size_t exact = 0;
        if (idx->kind() == LineageIndex::Kind::kArray) {
          exact = idx->size() * sizeof(rid_t);
        } else {
          ASSERT_EQ(idx->kind(), LineageIndex::Kind::kIndex);
          exact = idx->size() * sizeof(RidVec) +
                  idx->TotalEdges() * sizeof(rid_t);
        }
        EXPECT_EQ(idx->MemoryBytes(), exact) << nq.name << " " << tl.table_name;
      }
    }
  }
}

}  // namespace
}  // namespace smoke
