// Property tests for the compressed lineage store codecs
// (lineage/store/rid_codec.h): every codec round-trips every rid
// distribution exactly, encoded indexes answer TraceInto/compose queries
// bit-identically to raw, and the adaptive policy never loses to raw.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "lineage/compose.h"
#include "lineage/partitioned_rid_index.h"
#include "lineage/rid_index.h"
#include "lineage/store/lineage_store.h"
#include "lineage/store/rid_codec.h"
#include "test_util.h"

namespace smoke {
namespace {

constexpr LineageCodec kAllCodecs[] = {
    LineageCodec::kRaw, LineageCodec::kRange, LineageCodec::kBitmap,
    LineageCodec::kAdaptive};

/// Named rid-list distributions the adaptive encoder must handle.
enum class Dist { kSorted, kClusteredRuns, kUniformSparse, kDense, kShuffled };

std::vector<rid_t> MakeList(Dist dist, size_t n, std::mt19937* rng) {
  std::vector<rid_t> v;
  v.reserve(n);
  switch (dist) {
    case Dist::kSorted: {  // ascending, random gaps
      rid_t cur = (*rng)() % 50;
      for (size_t i = 0; i < n; ++i) {
        cur += 1 + (*rng)() % 97;
        v.push_back(cur);
      }
      break;
    }
    case Dist::kClusteredRuns: {  // few contiguous runs (selection ranges)
      rid_t cur = (*rng)() % 100;
      size_t i = 0;
      while (i < n) {
        size_t run = std::min<size_t>(n - i, 1 + (*rng)() % 200);
        for (size_t k = 0; k < run; ++k) v.push_back(cur + k);
        cur += static_cast<rid_t>(run + 1 + (*rng)() % 1000);
        i += run;
      }
      break;
    }
    case Dist::kUniformSparse: {  // ascending over a huge universe
      rid_t cur = 0;
      for (size_t i = 0; i < n; ++i) {
        cur += 1 + (*rng)() % 5000;
        v.push_back(cur);
      }
      break;
    }
    case Dist::kDense: {  // >1/32 fill of a small universe (bitmap country)
      rid_t cur = 0;
      for (size_t i = 0; i < n; ++i) {
        cur += 1 + (*rng)() % 3;
        v.push_back(cur);
      }
      break;
    }
    case Dist::kShuffled: {  // unsorted with duplicates (witness lists)
      for (size_t i = 0; i < n; ++i) {
        v.push_back((*rng)() % (n * 2 + 1));
      }
      break;
    }
  }
  return v;
}

RidIndex MakeIndex(Dist dist, size_t lists, size_t per_list,
                   std::mt19937* rng) {
  RidIndex idx(lists);
  for (size_t i = 0; i < lists; ++i) {
    size_t n = per_list == 0 ? 0 : 1 + (*rng)() % per_list;
    if (i % 7 == 3) n = 0;  // sprinkle empty lists
    for (rid_t r : MakeList(dist, n, rng)) idx.Append(i, r);
  }
  return idx;
}

std::vector<rid_t> ListOf(const RidIndex& idx, size_t i) {
  std::vector<rid_t> v;
  const RidVec& l = idx.list(i);
  v.assign(l.begin(), l.end());
  return v;
}

std::vector<rid_t> ListOf(const EncodedPostings& p, size_t i) {
  std::vector<rid_t> v;
  p.AppendList(i, &v);
  return v;
}

TEST(RidCodecTest, PostingsRoundTripAllDistributionsAllCodecs) {
  std::mt19937 rng(20260730);
  for (Dist dist : {Dist::kSorted, Dist::kClusteredRuns, Dist::kUniformSparse,
                    Dist::kDense, Dist::kShuffled}) {
    RidIndex raw = MakeIndex(dist, 40, 300, &rng);
    for (LineageCodec codec : kAllCodecs) {
      EncodedPostings enc = EncodedPostings::Encode(raw, codec);
      ASSERT_EQ(enc.num_lists(), raw.size());
      ASSERT_EQ(enc.TotalEdges(), raw.TotalEdges());
      for (size_t i = 0; i < raw.size(); ++i) {
        EXPECT_EQ(ListOf(enc, i), ListOf(raw, i))
            << "dist=" << static_cast<int>(dist)
            << " codec=" << LineageCodecName(codec) << " list=" << i;
        EXPECT_EQ(enc.ListSize(i), raw.list(i).size());
      }
      // Full decode reproduces the index exactly.
      RidIndex back = enc.Decode();
      ASSERT_EQ(back.size(), raw.size());
      for (size_t i = 0; i < raw.size(); ++i) {
        EXPECT_EQ(ListOf(back, i), ListOf(raw, i));
      }
    }
  }
}

TEST(RidCodecTest, ArrayRoundTripAndRandomAccess) {
  std::mt19937 rng(7);
  // Shapes: contiguous selection (one run), clustered runs with invalid
  // gaps, and fully random with invalid sentinels.
  std::vector<std::vector<rid_t>> arrays;
  {
    std::vector<rid_t> a(5000);
    for (size_t i = 0; i < a.size(); ++i) a[i] = 1000 + static_cast<rid_t>(i);
    arrays.push_back(std::move(a));
  }
  {
    std::vector<rid_t> a;
    rid_t cur = 0;
    while (a.size() < 4000) {
      size_t run = 1 + rng() % 300;
      bool invalid = rng() % 3 == 0;
      for (size_t k = 0; k < run; ++k) {
        a.push_back(invalid ? kInvalidRid : cur + static_cast<rid_t>(k));
      }
      cur += static_cast<rid_t>(run + rng() % 50);
    }
    arrays.push_back(std::move(a));
  }
  {
    std::vector<rid_t> a(3000);
    for (auto& r : a) r = rng() % 5 == 0 ? kInvalidRid : rng() % 100000;
    arrays.push_back(std::move(a));
  }
  arrays.push_back({});  // empty

  for (const auto& raw : arrays) {
    for (LineageCodec codec : kAllCodecs) {
      EncodedRidArray enc = EncodedRidArray::Encode(raw, codec);
      ASSERT_EQ(enc.size(), raw.size());
      EXPECT_EQ(enc.Decode(), raw) << LineageCodecName(codec);
      for (size_t i = 0; i < raw.size(); ++i) {
        ASSERT_EQ(enc.At(i), raw[i])
            << "codec=" << LineageCodecName(codec) << " i=" << i;
      }
    }
  }
}

TEST(RidCodecTest, AdaptiveNeverLosesToRawAndCompressesStructure) {
  std::mt19937 rng(99);
  for (Dist dist : {Dist::kSorted, Dist::kClusteredRuns, Dist::kUniformSparse,
                    Dist::kDense, Dist::kShuffled}) {
    RidIndex raw = MakeIndex(dist, 30, 500, &rng);
    EncodedPostings enc_raw = EncodedPostings::Encode(raw, LineageCodec::kRaw);
    EncodedPostings enc_ad =
        EncodedPostings::Encode(raw, LineageCodec::kAdaptive);
    EXPECT_LE(enc_ad.MemoryBytes(), enc_raw.MemoryBytes())
        << "dist=" << static_cast<int>(dist);
  }
  // Clustered runs must compress by a wide margin (the fig-mem claim).
  RidIndex clustered = MakeIndex(Dist::kClusteredRuns, 30, 3000, &rng);
  EncodedPostings ad =
      EncodedPostings::Encode(clustered, LineageCodec::kAdaptive);
  EXPECT_LT(ad.MemoryBytes() * 4,
            EncodedPostings::Encode(clustered, LineageCodec::kRaw)
                .MemoryBytes());
}

/// Encoded LineageIndex forms answer TraceInto identically to raw.
TEST(RidCodecTest, EncodedLineageIndexEquivalence) {
  std::mt19937 rng(11);
  for (Dist dist : {Dist::kClusteredRuns, Dist::kShuffled, Dist::kDense}) {
    RidIndex idx = MakeIndex(dist, 25, 100, &rng);
    LineageIndex raw = LineageIndex::FromIndex(std::move(idx));
    for (LineageCodec codec :
         {LineageCodec::kRange, LineageCodec::kBitmap,
          LineageCodec::kAdaptive}) {
      LineageIndex enc = EncodeLineage(raw, codec);
      ASSERT_TRUE(enc.encoded());
      ASSERT_EQ(enc.size(), raw.size());
      EXPECT_EQ(enc.TotalEdges(), raw.TotalEdges());
      std::vector<rid_t> a, b;
      for (rid_t p = 0; p < raw.size(); ++p) {
        a.clear();
        b.clear();
        raw.TraceInto(p, &a);
        enc.TraceInto(p, &b);
        ASSERT_EQ(a, b) << "codec=" << LineageCodecName(codec) << " p=" << p;
      }
      // Decode restores the raw physical kind with identical content.
      LineageIndex dec = EncodeLineage(enc, LineageCodec::kRaw);
      EXPECT_EQ(dec.kind(), LineageIndex::Kind::kIndex);
      EXPECT_EQ(testing::Edges(dec), testing::Edges(raw));
    }
  }
}

/// Composition over encoded indexes is bit-identical to raw composition
/// (in-situ: compose never decompresses whole indexes).
TEST(RidCodecTest, ComposeOverEncodedMatchesRaw) {
  std::mt19937 rng(17);
  const size_t outs = 30, mids = 50, ins = 80;
  RidIndex outer_idx(outs);
  for (size_t o = 0; o < outs; ++o) {
    const size_t cnt = rng() % 6;
    for (size_t k = 0; k < cnt; ++k) outer_idx.Append(o, rng() % mids);
  }
  RidIndex inner_idx(mids);
  for (size_t m = 0; m < mids; ++m) {
    const size_t cnt = rng() % 5;
    for (size_t k = 0; k < cnt; ++k) inner_idx.Append(m, rng() % ins);
  }
  std::vector<rid_t> arr(mids);
  for (auto& r : arr) r = rng() % 4 == 0 ? kInvalidRid : rng() % ins;
  // Forward chain: fw1 maps inputs -> intermediates, fw2 intermediates ->
  // final outputs.
  RidIndex fw1_idx(ins);
  for (size_t i = 0; i < ins; ++i) {
    const size_t cnt = rng() % 4;
    for (size_t k = 0; k < cnt; ++k) fw1_idx.Append(i, rng() % mids);
  }
  RidIndex fw2_idx(mids);
  for (size_t m = 0; m < mids; ++m) {
    const size_t cnt = rng() % 4;
    for (size_t k = 0; k < cnt; ++k) fw2_idx.Append(m, rng() % outs);
  }

  LineageIndex outer = LineageIndex::FromIndex(std::move(outer_idx));
  LineageIndex inner = LineageIndex::FromIndex(std::move(inner_idx));
  LineageIndex inner_arr = LineageIndex::FromArray(RidArray(arr));
  LineageIndex fw1 = LineageIndex::FromIndex(std::move(fw1_idx));
  LineageIndex fw2 = LineageIndex::FromIndex(std::move(fw2_idx));

  LineageIndex ref_ii = ComposeBackward(outer, inner);
  LineageIndex ref_ia = ComposeBackward(outer, inner_arr);
  LineageIndex ref_fw = ComposeForward(fw1, fw2);

  for (LineageCodec codec :
       {LineageCodec::kRange, LineageCodec::kBitmap, LineageCodec::kAdaptive}) {
    LineageIndex eo = EncodeLineage(outer, codec);
    LineageIndex ei = EncodeLineage(inner, codec);
    LineageIndex ea = EncodeLineage(inner_arr, codec);
    EXPECT_EQ(testing::Edges(ComposeBackward(eo, ei)), testing::Edges(ref_ii))
        << LineageCodecName(codec);
    EXPECT_EQ(testing::Edges(ComposeBackward(eo, ea)), testing::Edges(ref_ia))
        << LineageCodecName(codec);
    EXPECT_EQ(testing::Edges(ComposeForward(EncodeLineage(fw1, codec),
                                            EncodeLineage(fw2, codec))),
              testing::Edges(ref_fw))
        << LineageCodecName(codec);
    // DAG-merge over an encoded destination promotes and merges exactly.
    LineageIndex dst_raw = ref_ii;
    MergeBackwardInto(&dst_raw, ref_ia);
    LineageIndex dst_enc = EncodeLineage(ref_ii, codec);
    MergeBackwardInto(&dst_enc, ref_ia);
    EXPECT_EQ(testing::Edges(dst_enc), testing::Edges(dst_raw));
  }
}

/// Frozen partitioned indexes stream partitions identically to raw.
TEST(RidCodecTest, PartitionedIndexFreezeEquivalence) {
  std::mt19937 rng(23);
  PartitionedRidIndex raw(12, 4);
  for (size_t o = 0; o < 12; ++o) {
    for (uint32_t c = 0; c < 4; ++c) {
      rid_t cur = rng() % 10;
      const size_t cnt = rng() % 20;
      for (size_t k = 0; k < cnt; ++k) {
        raw.Append(o, c, cur);
        cur += (rng() % 3 == 0) ? 7 : 1;  // mix runs and gaps
      }
    }
  }
  PartitionedRidIndex frozen = raw;  // copy, then freeze the copy
  frozen.Freeze(LineageCodec::kAdaptive);
  ASSERT_TRUE(frozen.frozen());
  EXPECT_EQ(frozen.num_outputs(), raw.num_outputs());
  EXPECT_EQ(frozen.TotalEdges(), raw.TotalEdges());
  for (size_t o = 0; o < 12; ++o) {
    for (uint32_t c = 0; c < 4; ++c) {
      std::vector<rid_t> a, b;
      for (rid_t r : raw.Partition(o, c)) a.push_back(r);
      frozen.ForEachInPartition(o, c, [&b](rid_t r) { b.push_back(r); });
      ASSERT_EQ(a, b) << "output=" << o << " code=" << c;
    }
    std::vector<rid_t> ta, tb;
    raw.TraceAllInto(o, &ta);
    frozen.TraceAllInto(o, &tb);
    EXPECT_EQ(ta, tb);
  }
}

// ---- kPacked and kEliasFano: seeded property round-trips ----

/// Arrays for the packed property test: group-id shapes of every width,
/// rids near kInvalidRid - 1, and arrays holding kInvalidRid.
std::vector<std::vector<rid_t>> PackedCases(std::mt19937_64* rng) {
  std::vector<std::vector<rid_t>> cases = {
      {},
      {5},
      {kInvalidRid},
      std::vector<rid_t>(100, kInvalidRid),  // all invalid
      {0, kInvalidRid - 1},                  // the widest frame: 32 bits
      {kInvalidRid - 1, kInvalidRid, kInvalidRid - 1},
  };
  for (uint64_t groups : {1ull, 2ull, 3ull, 20ull, 300ull, 1ull << 20}) {
    std::vector<rid_t> a(1 + (*rng)() % 3000);
    for (rid_t& r : a) {
      r = (*rng)() % 9 == 0 ? kInvalidRid
                            : static_cast<rid_t>((*rng)() % groups);
    }
    cases.push_back(std::move(a));
  }
  std::vector<rid_t> dense(2000);  // a contiguous selection
  for (size_t i = 0; i < dense.size(); ++i) dense[i] = 77 + static_cast<rid_t>(i);
  cases.push_back(std::move(dense));
  std::vector<rid_t> high(1500);  // a narrow frame just below kInvalidRid
  for (rid_t& r : high) {
    r = (*rng)() % 5 == 0 ? kInvalidRid
                          : kInvalidRid - 1 - static_cast<rid_t>((*rng)() % 300);
  }
  cases.push_back(std::move(high));
  std::vector<rid_t> sparse(1000);  // random rids over the whole range
  for (rid_t& r : sparse) r = static_cast<rid_t>((*rng)() % kInvalidRid);
  cases.push_back(std::move(sparse));
  return cases;
}

void ExpectArrayEquals(const EncodedRidArray& enc,
                       const std::vector<rid_t>& raw, const std::string& what) {
  ASSERT_EQ(enc.size(), raw.size()) << what;
  for (size_t i = 0; i < raw.size(); ++i) {
    ASSERT_EQ(enc.At(i), raw[i]) << what << " i=" << i;
  }
  EXPECT_EQ(enc.Decode(), raw) << what;
}

TEST(RidCodecTest, PackedArrayPropertyRoundTrip) {
  std::mt19937_64 rng(20261020);
  size_t case_no = 0;
  for (const std::vector<rid_t>& raw : PackedCases(&rng)) {
    const std::string what = "case " + std::to_string(case_no++);
    const EncodedRidArray packed =
        EncodedRidArray::EncodeAs(raw.data(), raw.size(),
                                  RidSetEncoding::kPacked);
    EXPECT_EQ(packed.encoding(), RidSetEncoding::kPacked);
    ExpectArrayEquals(packed, raw, what + " packed");
    // The adaptive choice round-trips too, and never exceeds raw.
    const EncodedRidArray adaptive =
        EncodedRidArray::Encode(raw, LineageCodec::kAdaptive);
    ExpectArrayEquals(adaptive, raw, what + " adaptive");
    EXPECT_LE(adaptive.MemoryBytes(), raw.size() * sizeof(rid_t)) << what;

    // Built by appends from a packed prefix: every value past the current
    // frame repacks, and every position reads back at every step.
    const size_t prefix = raw.size() / 3;
    EncodedRidArray grown = EncodedRidArray::EncodeAs(
        raw.data(), prefix, RidSetEncoding::kPacked);
    for (size_t i = prefix; i < raw.size(); ++i) {
      grown.Append(raw[i]);
      ASSERT_EQ(grown.At(i), raw[i]) << what << " append i=" << i;
    }
    EXPECT_EQ(grown.encoding(), RidSetEncoding::kPacked) << what;
    ExpectArrayEquals(grown, raw, what + " appended");
  }
}

TEST(RidCodecTest, PackedAppendRepacksPastTheFrame) {
  // Frame [10, 13]: 3 bits (codes 0..3 plus the all-ones kInvalidRid).
  std::vector<rid_t> raw = {10, 11, 13, 12, kInvalidRid, 10};
  EncodedRidArray a =
      EncodedRidArray::EncodeAs(raw.data(), raw.size(), RidSetEncoding::kPacked);
  EXPECT_EQ(a.width(), 3u);
  a.Append(13);  // fits
  raw.push_back(13);
  EXPECT_EQ(a.width(), 3u);
  // Below the base, past the width, the sentinel, the widest frame.
  for (rid_t v : {rid_t{9}, rid_t{100}, kInvalidRid, rid_t{0},
                  kInvalidRid - 1, rid_t{4}}) {
    a.Append(v);
    raw.push_back(v);
    ExpectArrayEquals(a, raw, "after appending " + std::to_string(v));
  }
  EXPECT_EQ(a.width(), 32u);
  EXPECT_EQ(a.encoding(), RidSetEncoding::kPacked);
}

TEST(RidCodecTest, AdaptivePacksGroupIdArrays) {
  std::mt19937_64 rng(5);
  // A group-by forward: 20 groups need 5 bits, 300 need 9.
  for (auto [groups, width] : {std::pair<rid_t, unsigned>{20, 5},
                               std::pair<rid_t, unsigned>{300, 9}}) {
    std::vector<rid_t> fw(10000);
    for (rid_t& r : fw) r = static_cast<rid_t>(rng() % groups);
    const EncodedRidArray enc =
        EncodedRidArray::Encode(fw, LineageCodec::kAdaptive);
    EXPECT_EQ(enc.encoding(), RidSetEncoding::kPacked);
    EXPECT_EQ(enc.width(), width);
    EXPECT_LT(enc.MemoryBytes() * 3, fw.size() * sizeof(rid_t));
  }
}

/// Strictly ascending lists for the Elias-Fano property test: single rids,
/// dense runs, sparse walks, rids near kInvalidRid - 1, random sizes and
/// densities, and a sample of a group-by bar's rows.
std::vector<std::vector<rid_t>> AscendingCases(std::mt19937_64* rng) {
  std::vector<std::vector<rid_t>> cases = {
      {0},
      {kInvalidRid - 1},
      {0, kInvalidRid - 1},
      {3, 4},
  };
  auto walk = [rng](rid_t start, size_t n, uint64_t max_gap) {
    std::vector<rid_t> v;
    uint64_t cur = start;
    for (size_t i = 0; i < n && cur < kInvalidRid; ++i) {
      v.push_back(static_cast<rid_t>(cur));
      cur += 1 + (*rng)() % max_gap;
    }
    return v;
  };
  cases.push_back(walk(0, 5000, 1));        // 4: dense, one run
  cases.push_back(walk(1000, 5000, 3));     // 5: dense with gaps
  cases.push_back(walk(7, 2000, 1000000));  // 6: sparse
  // 7: sparse, ending at kInvalidRid - 1.
  std::vector<rid_t> top = walk(kInvalidRid - 400000, 2000, 150);
  top.push_back(kInvalidRid - 1);
  cases.push_back(std::move(top));
  for (int k = 0; k < 8; ++k) {  // random sizes and densities
    cases.push_back(walk(static_cast<rid_t>((*rng)() % 1000),
                         1 + (*rng)() % 4000, 1 + (*rng)() % 5000));
  }
  // A random sample of [0, 200000), as a group-by bar's rows.
  std::vector<rid_t> sample;
  for (rid_t r = 0; r < 200000; ++r) {
    if ((*rng)() % 20 == 0) sample.push_back(r);
  }
  cases.push_back(std::move(sample));
  return cases;
}

TEST(RidCodecTest, EliasFanoPropertyRoundTrip) {
  std::mt19937_64 rng(20261021);
  const std::vector<std::vector<rid_t>> cases = AscendingCases(&rng);
  // Every case under the adaptive policy, with an empty list after each.
  PostingsBuilder b(LineageCodec::kAdaptive);
  for (const std::vector<rid_t>& raw : cases) {
    b.AddList(raw.data(), raw.size());
    b.AddList(nullptr, 0);
  }
  const EncodedPostings enc = b.Finish();
  ASSERT_EQ(enc.num_lists(), 2 * cases.size());
  size_t elias_fano = 0;
  for (size_t c = 0; c < cases.size(); ++c) {
    const std::vector<rid_t>& raw = cases[c];
    EXPECT_EQ(ListOf(enc, 2 * c), raw) << "case " << c;
    EXPECT_EQ(enc.ListSize(2 * c), raw.size());
    EXPECT_TRUE(ListOf(enc, 2 * c + 1).empty());
    elias_fano += enc.list_encoding(2 * c) == RidSetEncoding::kEliasFano;
  }
  // The sparse lists are Elias-Fano's: smaller than raw, runs or a bitmap.
  EXPECT_EQ(enc.list_encoding(2 * 6), RidSetEncoding::kEliasFano);
  EXPECT_EQ(enc.list_encoding(2 * 7), RidSetEncoding::kEliasFano);
  EXPECT_EQ(enc.list_encoding(2 * (cases.size() - 1)),
            RidSetEncoding::kEliasFano);
  EXPECT_GE(elias_fano, 6u);
  // One run stays a run; a list filling half its span is a bitmap.
  EXPECT_EQ(enc.list_encoding(2 * 4), RidSetEncoding::kRange);
  EXPECT_EQ(enc.list_encoding(2 * 5), RidSetEncoding::kBitmap);
  RidIndex back = enc.Decode();
  for (size_t c = 0; c < cases.size(); ++c) {
    EXPECT_EQ(ListOf(back, 2 * c), cases[c]);
  }
}

// Refresh mutations of an Elias-Fano list go through the overlay and give
// what the same mutations give on the raw list.
TEST(RidCodecTest, EliasFanoOverlayMutationsMatchRaw) {
  std::mt19937_64 rng(31);
  // The cases the adaptive policy encodes as Elias-Fano.
  std::vector<std::vector<rid_t>> ref;
  for (std::vector<rid_t>& l : AscendingCases(&rng)) {
    if (ChooseEncoding(RidSetStats::Of(l.data(), l.size()),
                       LineageCodec::kAdaptive) ==
        RidSetEncoding::kEliasFano) {
      ref.push_back(std::move(l));
    }
  }
  ASSERT_GE(ref.size(), 6u);
  PostingsBuilder b(LineageCodec::kAdaptive);
  for (const std::vector<rid_t>& l : ref) b.AddList(l.data(), l.size());
  EncodedPostings enc = b.Finish();
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(enc.list_encoding(i), RidSetEncoding::kEliasFano) << i;
  }
  for (int step = 0; step < 400; ++step) {
    const size_t i = rng() % ref.size();
    std::vector<rid_t>& l = ref[i];
    if (rng() % 2 == 0) {
      // InsertSortedIntoList: a present rid, one inside, one past the end.
      rid_t v = l[rng() % l.size()];
      if (rng() % 3 == 0 && v > 0) v -= 1;
      if (rng() % 3 == 0 && l.back() < kInvalidRid - 2) v = l.back() + 1;
      enc.InsertSortedIntoList(i, v);
      auto pos = std::lower_bound(l.begin(), l.end(), v);
      if (pos == l.end() || *pos != v) l.insert(pos, v);
    } else {
      // ExtendList: new rids past the end, as monotonic rid spaces give.
      std::vector<rid_t> more;
      uint64_t cur = l.back();
      for (size_t k = 1 + rng() % 4; k > 0; --k) {
        cur += 1 + rng() % 1000;
        if (cur >= kInvalidRid) break;
        more.push_back(static_cast<rid_t>(cur));
      }
      enc.ExtendList(i, more.data(), more.size());
      l.insert(l.end(), more.begin(), more.end());
    }
    ASSERT_EQ(ListOf(enc, i), l) << "step " << step << " list " << i;
    ASSERT_EQ(enc.ListSize(i), l.size());
  }
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(ListOf(enc, i), ref[i]);
}

}  // namespace
}  // namespace smoke
