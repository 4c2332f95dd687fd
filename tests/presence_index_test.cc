/// The column store behind every presence read: `PresenceIndex` (one
/// `DynamicBitset` over entities per time point, plus its interval folds)
/// and the word-at-a-time column walk of the grouping kernels
/// (`SlotColumns`, `ForEachWordOf` in core/grouping_internal.h). The folds
/// answer "present at any / every time of T", the questions the operators
/// and Algorithm 2 ask of each entity, and are pinned here against a
/// per-bit reference on randomized stores.

#include "core/presence_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "core/grouping_internal.h"
#include "datagen/random.h"
#include "storage/compressed_bitset.h"

namespace graphtempo {
namespace {

using internal_grouping::ForEachWordOf;
using internal_grouping::SlotColumns;

DynamicBitset Mask(std::size_t size, std::initializer_list<std::size_t> bits) {
  DynamicBitset mask(size);
  for (std::size_t b : bits) mask.Set(b);
  return mask;
}

TEST(PresenceIndexTest, StartsEmpty) {
  PresenceIndex index(8);
  EXPECT_EQ(index.num_times(), 8u);
  EXPECT_EQ(index.num_entities(), 0u);
  for (std::size_t t = 0; t < 8; ++t) EXPECT_EQ(index.Column(t).size(), 0u);
}

TEST(PresenceIndexTest, AddEntitiesGrowsEveryColumn) {
  PresenceIndex index(3);
  index.AddEntities(3);
  index.AddEntities(2);
  EXPECT_EQ(index.num_entities(), 5u);
  for (std::size_t t = 0; t < 3; ++t) EXPECT_EQ(index.Column(t).size(), 5u);
}

TEST(PresenceIndexTest, NewEntitiesAreAbsent) {
  PresenceIndex index(2);
  index.AddEntities(70);
  for (std::size_t e = 0; e < 70; ++e) {
    EXPECT_FALSE(index.Column(0).Test(e));
    EXPECT_FALSE(index.Column(1).Test(e));
  }
}

TEST(PresenceIndexTest, SetAndTestAcrossEntityWords) {
  PresenceIndex index(3);
  index.AddEntities(130);
  index.Set(0, 1);
  index.Set(64, 1);
  index.Set(129, 1);
  index.Set(5, 2);
  EXPECT_TRUE(index.Column(1).Test(0));
  EXPECT_TRUE(index.Column(1).Test(64));
  EXPECT_TRUE(index.Column(1).Test(129));
  EXPECT_FALSE(index.Column(0).Test(0));
  EXPECT_TRUE(index.Column(2).Test(5));
  EXPECT_FALSE(index.Column(1).Test(5));
}

TEST(PresenceIndexTest, CountAtPopcountsOneColumn) {
  PresenceIndex index(2);
  index.AddEntities(100);
  EXPECT_EQ(index.CountAt(0), 0u);
  index.Set(1, 0);
  index.Set(99, 0);
  index.Set(50, 1);
  EXPECT_EQ(index.CountAt(0), 2u);
  EXPECT_EQ(index.CountAt(1), 1u);
}

// "Present at some time of T" is the union fold, "present at every time of
// T" the intersection fold.
TEST(PresenceIndexTest, MaskedFoldsAnswerAnyAndAll) {
  PresenceIndex index(10);
  index.AddEntities(2);
  index.Set(0, 2);
  index.Set(0, 3);

  DynamicBitset mask = Mask(10, {2, 3});
  EXPECT_TRUE(index.UnionOver(mask).Test(0));
  EXPECT_TRUE(index.IntersectionOver(mask).Test(0));
  EXPECT_FALSE(index.UnionOver(mask).Test(1));
  EXPECT_EQ(index.AppearancesOver(mask), 2u);

  mask.Set(4);
  EXPECT_TRUE(index.UnionOver(mask).Test(0));
  EXPECT_FALSE(index.IntersectionOver(mask).Test(0));
  EXPECT_EQ(index.AppearancesOver(mask), 2u);

  DynamicBitset disjoint = Mask(10, {7});
  EXPECT_FALSE(index.UnionOver(disjoint).Test(0));
}

TEST(PresenceIndexTest, EmptyMaskIsVacuouslyAll) {
  PresenceIndex index(10);
  index.AddEntities(3);
  DynamicBitset empty_mask(10);
  EXPECT_EQ(index.IntersectionOver(empty_mask).Count(), 3u);
  EXPECT_TRUE(index.UnionOver(empty_mask).None());
  EXPECT_EQ(index.AppearancesOver(empty_mask), 0u);
  EXPECT_EQ(index.MaxCountOver(empty_mask), 0u);
}

TEST(PresenceIndexTest, RangeFoldsMatchMaskFolds) {
  PresenceIndex index(70);
  index.AddEntities(3);
  index.Set(0, 10);
  index.Set(0, 65);
  index.Set(1, 65);
  index.Set(1, 69);
  for (std::size_t t = 60; t <= 69; ++t) index.Set(2, t);
  DynamicBitset mask(70);
  mask.SetRange(60, 69);
  EXPECT_EQ(index.UnionRange(60, 69), index.UnionOver(mask));
  EXPECT_EQ(index.IntersectRange(60, 69), index.IntersectionOver(mask));
  EXPECT_EQ(index.UnionRange(60, 69).ToIndexVector(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(index.IntersectRange(60, 69).ToIndexVector(), (std::vector<std::size_t>{2}));
  EXPECT_EQ(index.AppearancesOver(mask), 13u);
  EXPECT_EQ(index.MaxCountOver(mask), 3u);
}

TEST(PresenceIndexTest, SetAfterAFoldRebuildsTheTables) {
  PresenceIndex index(4);
  index.AddEntities(2);
  index.Set(0, 1);
  index.EnsureTables();
  EXPECT_EQ(index.UnionRange(0, 3).Count(), 1u);
  EXPECT_EQ(index.AppearancesOver(Mask(4, {0, 1, 2, 3})), 1u);
  index.Set(1, 3);
  EXPECT_EQ(index.UnionRange(0, 3).Count(), 2u);
  EXPECT_EQ(index.AppearancesOver(Mask(4, {0, 1, 2, 3})), 2u);
}

TEST(PresenceIndexTest, AddTimePointsKeepsDataAndAppendsEmptyColumns) {
  PresenceIndex index(10);
  index.AddEntities(2);
  index.Set(0, 3);
  index.Set(1, 9);
  index.AddTimePoints(5);
  EXPECT_EQ(index.num_times(), 15u);
  EXPECT_TRUE(index.Column(3).Test(0));
  EXPECT_TRUE(index.Column(9).Test(1));
  for (std::size_t t = 10; t < 15; ++t) EXPECT_TRUE(index.Column(t).None());
  index.Set(0, 14);
  EXPECT_TRUE(index.Column(14).Test(0));
}

// Time points are columns, so growing the domain past a multiple of 64 moves
// no stored bit; the folds over the grown domain still see the old columns.
TEST(PresenceIndexTest, AddTimePointsPastAWordBoundaryKeepsFolds) {
  PresenceIndex index(64);
  index.AddEntities(3);
  index.Set(0, 0);
  index.Set(1, 63);
  index.Set(2, 30);
  EXPECT_EQ(index.UnionRange(0, 63).Count(), 3u);
  index.AddTimePoints(2);
  EXPECT_EQ(index.num_times(), 66u);
  index.Set(0, 65);
  DynamicBitset all(66);
  all.SetAll();
  EXPECT_EQ(index.UnionOver(all).Count(), 3u);
  EXPECT_EQ(index.UnionRange(64, 65).ToIndexVector(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(index.AppearancesOver(all), 4u);
  EXPECT_EQ(index.AppearancesOver(Mask(66, {0, 64, 65})), 2u);
}

TEST(PresenceIndexTest, AddEntitiesPastAWordBoundaryKeepsData) {
  PresenceIndex index(2);
  index.AddEntities(64);
  index.Set(63, 0);
  index.Set(0, 1);
  index.AddEntities(2);
  EXPECT_EQ(index.num_entities(), 66u);
  EXPECT_TRUE(index.Column(0).Test(63));
  EXPECT_TRUE(index.Column(1).Test(0));
  EXPECT_FALSE(index.Column(0).Test(64));
  EXPECT_FALSE(index.Column(1).Test(65));
  index.Set(65, 1);
  EXPECT_EQ(index.CountAt(1), 2u);
}

TEST(PresenceIndexTest, RestoredColumnsDecodeOnFirstTouch) {
  PresenceIndex built(3);
  built.AddEntities(130);
  built.Set(0, 0);
  built.Set(64, 1);
  built.Set(129, 1);
  built.Set(70, 2);
  std::vector<storage::CompressedBitset> columns;
  for (std::size_t t = 0; t < 3; ++t) {
    columns.push_back(storage::CompressedBitset::Compress(built.Column(t)));
  }
  PresenceIndex restored(3);
  restored.RestoreCompressed(130, std::move(columns));
  EXPECT_EQ(restored.num_entities(), 130u);
  EXPECT_EQ(restored.compressed_columns(), 3u);
  EXPECT_EQ(restored.Column(1), built.Column(1));
  EXPECT_EQ(restored.compressed_columns(), 2u);
  EXPECT_EQ(restored.UnionRange(0, 2), built.UnionRange(0, 2));
  EXPECT_EQ(restored.compressed_columns(), 0u);
}

// The folds are pinned against a per-bit reference on randomized stores and
// masks, domains crossing word boundaries on both axes.
TEST(PresenceIndexTest, FoldsMatchPerBitReference) {
  datagen::Pcg32 rng(7);
  for (int round = 0; round < 10; ++round) {
    const std::size_t times = 1 + rng.NextBelow(140);
    const std::size_t entities = 1 + rng.NextBelow(200);
    PresenceIndex index(times);
    index.AddEntities(entities);
    std::vector<std::vector<bool>> present(entities, std::vector<bool>(times, false));
    for (std::size_t e = 0; e < entities; ++e) {
      for (std::size_t t = 0; t < times; ++t) {
        if (rng.NextBool(0.3)) {
          index.Set(e, t);
          present[e][t] = true;
        }
      }
    }
    for (int m = 0; m < 10; ++m) {
      DynamicBitset mask(times);
      for (std::size_t t = 0; t < times; ++t) {
        if (rng.NextBool(0.4)) mask.Set(t);
      }
      const DynamicBitset any = index.UnionOver(mask);
      const DynamicBitset all = index.IntersectionOver(mask);
      std::size_t appearances = 0;
      for (std::size_t e = 0; e < entities; ++e) {
        bool ref_any = false;
        bool ref_all = true;
        mask.ForEachSetBit([&](std::size_t t) {
          ref_any = ref_any || present[e][t];
          ref_all = ref_all && present[e][t];
          appearances += present[e][t] ? 1 : 0;
        });
        EXPECT_EQ(any.Test(e), ref_any);
        EXPECT_EQ(all.Test(e), ref_all);
      }
      EXPECT_EQ(index.AppearancesOver(mask), appearances);
    }
  }
}

// The grouping kernels' walk: per entity word, one load per slot column,
// one call per appearance of a chosen entity — exactly the appearances a
// per-entity test of the columns finds, in slot order.
TEST(SlotColumnsTest, AppearancesMatchPerEntityColumnTests) {
  datagen::Pcg32 rng(11);
  for (int round = 0; round < 5; ++round) {
    const std::size_t times = 1 + rng.NextBelow(30);
    const std::size_t entities = 1 + rng.NextBelow(300);
    PresenceIndex index(times);
    index.AddEntities(entities);
    for (std::size_t e = 0; e < entities; ++e) {
      for (std::size_t t = 0; t < times; ++t) {
        if (rng.NextBool(0.3)) index.Set(e, t);
      }
    }
    std::vector<TimeId> slots_times;
    for (std::size_t t = 0; t < times; ++t) {
      if (rng.NextBool(0.6)) slots_times.push_back(static_cast<TimeId>(t));
    }
    std::vector<std::uint32_t> chosen;
    for (std::size_t e = 0; e < entities; ++e) {
      if (rng.NextBool(0.5)) chosen.push_back(static_cast<std::uint32_t>(e));
    }

    std::vector<std::pair<std::size_t, std::size_t>> expected;  // (entity, slot)
    for (std::uint32_t e : chosen) {
      for (std::size_t s = 0; s < slots_times.size(); ++s) {
        if (index.Column(slots_times[s]).Test(e)) expected.emplace_back(e, s);
      }
    }

    const SlotColumns columns(index, slots_times);
    EXPECT_EQ(columns.slots(), slots_times.size());
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    ForEachWordOf(std::span<const std::uint32_t>(chosen), 0, chosen.size(),
                  [&](std::size_t w, std::uint64_t bits) {
                    std::vector<std::pair<std::size_t, std::size_t>> word;
                    columns.ForEachAppearance(w, bits, [&](std::size_t i, std::size_t s) {
                      EXPECT_EQ(columns.Word(s, w) >> i & 1, 1u);
                      word.emplace_back(w * 64 + i, s);
                    });
                    std::sort(word.begin(), word.end());
                    seen.insert(seen.end(), word.begin(), word.end());
                  });
    EXPECT_EQ(seen, expected);
  }
}

TEST(SlotColumnsTest, ForEachWordOfGroupsAscendingIdsByWord) {
  const std::vector<std::uint32_t> entities = {1, 5, 63, 64, 130, 191, 192};
  std::vector<std::pair<std::size_t, std::uint64_t>> calls;
  ForEachWordOf(std::span<const std::uint32_t>(entities), 1, entities.size(),
                [&](std::size_t w, std::uint64_t chosen) { calls.emplace_back(w, chosen); });
  const std::vector<std::pair<std::size_t, std::uint64_t>> expected = {
      {0, (std::uint64_t{1} << 5) | (std::uint64_t{1} << 63)},
      {1, std::uint64_t{1}},
      {2, (std::uint64_t{1} << 2) | (std::uint64_t{1} << 63)},
      {3, std::uint64_t{1}},
  };
  EXPECT_EQ(calls, expected);
}

TEST(PresenceIndexDeath, MaskDomainMismatchAborts) {
  PresenceIndex index(10);
  index.AddEntities(1);
  DynamicBitset mask(11);
  EXPECT_DEATH(index.UnionOver(mask), "mismatch");
}

TEST(PresenceIndexDeath, EntityOutOfRangeAborts) {
  PresenceIndex index(10);
  EXPECT_DEATH(index.Set(0, 0), "entity out of range");
}

}  // namespace
}  // namespace graphtempo
