// The Figure 15 FD checks (bench/fd_modes.h) — Smoke-CD, Smoke-UG and
// Metanome-UG through the engine — each checked against a brute-force FD
// check over the base table, not against one another.
#include "fd_modes.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "test_util.h"
#include "workloads/physician.h"

namespace smoke {
namespace {

using bench::FdMode;
using bench::FdReport;
using bench::FdSpec;
using bench::kFdModes;

/// Violating LHS display value -> sorted rids of its tuples.
using Violations = std::map<std::string, std::vector<rid_t>>;

/// Brute-force FD check: every LHS display value's RHS value set and rids.
struct Reference {
  Violations violations;
  size_t num_groups = 0;
};

Reference BruteForce(const Table& t, const FdSpec& fd) {
  struct Group {
    std::set<std::string> rhs;
    std::vector<rid_t> rids;
  };
  std::map<std::string, Group> groups;
  for (rid_t r = 0; r < t.num_rows(); ++r) {
    Group& g = groups[ValueToString(
        t.GetValue(r, static_cast<size_t>(fd.lhs_col)))];
    g.rhs.insert(ValueToString(t.GetValue(r, static_cast<size_t>(fd.rhs_col))));
    g.rids.push_back(r);
  }
  Reference ref;
  ref.num_groups = groups.size();
  for (auto& [value, g] : groups) {
    if (g.rhs.size() > 1) ref.violations[value] = std::move(g.rids);
  }
  return ref;
}

/// A report as value -> sorted rid list. Smoke-CD's composed lists arrive
/// grouped by (A, B), not ascending.
Violations Normalize(const FdReport& r) {
  Violations m;
  for (size_t i = 0; i < r.violating_values.size(); ++i) {
    m[r.violating_values[i]] = testing::SortedList(r.bipartite, i);
  }
  return m;
}

/// Runs `mode` and checks it against the brute-force reference.
void ExpectMatchesReference(const FdMode& mode, const Table& t,
                            const FdSpec& fd) {
  SCOPED_TRACE(std::string(mode.name) + " " + fd.name);
  FdReport r;
  ASSERT_TRUE(mode.run(t, fd, &r).ok());
  const Reference ref = BruteForce(t, fd);
  EXPECT_EQ(r.num_groups, ref.num_groups);
  EXPECT_EQ(r.violating_values.size(), ref.violations.size());  // distinct
  EXPECT_EQ(r.bipartite.size(), r.violating_values.size());
  EXPECT_EQ(Normalize(r), ref.violations);
}

Table TwoColumns(DataType a, DataType b) {
  Schema s;
  s.AddField("a", a);
  s.AddField("b", b);
  return Table(s);
}

TEST(ProfilerTest, KnownViolations) {
  Table t = TwoColumns(DataType::kString, DataType::kString);
  t.AppendRow({std::string("x"), std::string("1")});
  t.AppendRow({std::string("x"), std::string("1")});
  t.AppendRow({std::string("y"), std::string("2")});
  t.AppendRow({std::string("y"), std::string("3")});  // y violates
  t.AppendRow({std::string("z"), std::string("4")});
  FdSpec fd{0, 1, "a->b"};
  for (const FdMode& mode : kFdModes) {
    SCOPED_TRACE(mode.name);
    FdReport r;
    ASSERT_TRUE(mode.run(t, fd, &r).ok());
    ASSERT_EQ(r.violating_values.size(), 1u);
    EXPECT_EQ(r.violating_values[0], "y");
    EXPECT_EQ(testing::SortedList(r.bipartite, 0), (std::vector<rid_t>{2, 3}));
    EXPECT_EQ(r.num_groups, 3u);
    ExpectMatchesReference(mode, t, fd);
  }
}

TEST(ProfilerTest, NoViolations) {
  Table t = TwoColumns(DataType::kInt64, DataType::kString);
  t.AppendRow({int64_t{1}, std::string("p")});
  t.AppendRow({int64_t{1}, std::string("p")});
  t.AppendRow({int64_t{2}, std::string("q")});
  FdSpec fd{0, 1, "a->b"};
  for (const FdMode& mode : kFdModes) {
    SCOPED_TRACE(mode.name);
    FdReport r;
    ASSERT_TRUE(mode.run(t, fd, &r).ok());
    EXPECT_TRUE(r.violating_values.empty());
    EXPECT_EQ(r.num_groups, 2u);
  }
}

TEST(ProfilerTest, IntRhsColumn) {
  Table t = TwoColumns(DataType::kString, DataType::kInt64);
  t.AppendRow({std::string("x"), int64_t{1}});
  t.AppendRow({std::string("x"), int64_t{2}});
  t.AppendRow({std::string("w"), int64_t{2}});
  FdSpec fd{0, 1, "a->b"};
  for (const FdMode& mode : kFdModes) {
    SCOPED_TRACE(mode.name);
    FdReport r;
    ASSERT_TRUE(mode.run(t, fd, &r).ok());
    ASSERT_EQ(r.violating_values.size(), 1u);
    EXPECT_EQ(r.violating_values[0], "x");
    ExpectMatchesReference(mode, t, fd);
  }
}

TEST(ProfilerTest, BadColumnIsAStatus) {
  Table t = TwoColumns(DataType::kString, DataType::kInt64);
  t.AppendRow({std::string("x"), int64_t{1}});
  const FdSpec bad[] = {{99, 1, "lhs 99"}, {0, 99, "rhs 99"},
                        {-1, 1, "lhs -1"}, {0, -1, "rhs -1"}};
  for (const FdMode& mode : kFdModes) {
    for (const FdSpec& fd : bad) {
      SCOPED_TRACE(std::string(mode.name) + " " + fd.name);
      FdReport r;
      Status st = mode.run(t, fd, &r);
      EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    }
  }
}

TEST(ProfilerTest, EmptyTableHasNoGroups) {
  Table t = TwoColumns(DataType::kInt64, DataType::kString);
  FdSpec fd{0, 1, "a->b"};
  for (const FdMode& mode : kFdModes) {
    SCOPED_TRACE(mode.name);
    FdReport r;
    r.num_groups = 7;  // overwritten
    ASSERT_TRUE(mode.run(t, fd, &r).ok());
    EXPECT_EQ(r.num_groups, 0u);
    EXPECT_TRUE(r.violating_values.empty());
    EXPECT_EQ(r.bipartite.size(), 0u);
  }
}

class ProfilerEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ProfilerEquivalence, ThreeTechniquesAgreeOnPhysicianFds) {
  Table t = physician::Generate(20000, 42);
  const FdSpec fds[] = {
      {physician::kNpi, physician::kPacId, "NPI->PAC_ID"},
      {physician::kZip, physician::kState, "Zip->State"},
      {physician::kZip, physician::kCity, "Zip->City"},
      {physician::kLbn1, physician::kCcn1, "LBN1->CCN1"},
  };
  const FdSpec& fd = fds[GetParam()];
  ASSERT_FALSE(BruteForce(t, fd).violations.empty()) << fd.name;
  for (const FdMode& mode : kFdModes) ExpectMatchesReference(mode, t, fd);
}

INSTANTIATE_TEST_SUITE_P(Fds, ProfilerEquivalence,
                         ::testing::Values(0, 1, 2, 3));

TEST(ProfilerTest, PhysicianDataHasInjectedViolations) {
  Table t = physician::Generate(50000, 7);
  FdSpec zip_city{physician::kZip, physician::kCity, "Zip->City"};
  FdReport r;
  ASSERT_TRUE(bench::ProfileCD(t, zip_city, &r).ok());
  // 2% violation rate: plenty of violating zips.
  EXPECT_GT(r.violating_values.size(), 50u);
  // Each bipartite list contains every tuple of that zip.
  const auto& zips = t.column(physician::kZip).strings();
  for (size_t i = 0; i < std::min<size_t>(r.violating_values.size(), 10); ++i) {
    for (rid_t rid : r.bipartite.list(i)) {
      ASSERT_EQ(zips[rid], r.violating_values[i]);
    }
  }
  ExpectMatchesReference({"Smoke-CD", bench::ProfileCD}, t, zip_city);
}

}  // namespace
}  // namespace smoke
