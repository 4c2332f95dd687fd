#include "storage/attribute_table.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "datagen/random.h"

namespace graphtempo {
namespace {

TEST(StaticColumnTest, UnsetCellsAreNoValue) {
  StaticColumn column("gender");
  column.Resize(3);
  EXPECT_EQ(column.CodeAt(0), kNoValue);
  EXPECT_EQ(column.CodeAt(2), kNoValue);
}

TEST(StaticColumnTest, SetAndGet) {
  StaticColumn column("gender");
  column.Resize(2);
  column.Set(0, "m");
  column.Set(1, "f");
  EXPECT_EQ(column.ValueAt(0), "m");
  EXPECT_EQ(column.ValueAt(1), "f");
  EXPECT_NE(column.CodeAt(0), column.CodeAt(1));
}

TEST(StaticColumnTest, SharedValuesShareCodes) {
  StaticColumn column("gender");
  column.Resize(3);
  column.Set(0, "f");
  column.Set(1, "m");
  column.Set(2, "f");
  EXPECT_EQ(column.CodeAt(0), column.CodeAt(2));
  EXPECT_EQ(column.dictionary().size(), 2u);
}

TEST(StaticColumnTest, ResizePreservesExistingValues) {
  StaticColumn column("c");
  column.Resize(1);
  column.Set(0, "x");
  column.Resize(5);
  EXPECT_EQ(column.ValueAt(0), "x");
  EXPECT_EQ(column.CodeAt(4), kNoValue);
}

TEST(StaticColumnTest, OverwriteChangesValue) {
  StaticColumn column("c");
  column.Resize(1);
  column.Set(0, "a");
  column.Set(0, "b");
  EXPECT_EQ(column.ValueAt(0), "b");
}

TEST(TimeVaryingColumnTest, UnsetCellsAreNoValue) {
  TimeVaryingColumn column("pubs", 3);
  column.Resize(2);
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t t = 0; t < 3; ++t) {
      EXPECT_EQ(column.CodeAt(n, t), kNoValue);
    }
  }
}

TEST(TimeVaryingColumnTest, SetAndGetPerTime) {
  TimeVaryingColumn column("pubs", 3);
  column.Resize(1);
  column.Set(0, 0, "3");
  column.Set(0, 1, "1");
  EXPECT_EQ(column.ValueAt(0, 0), "3");
  EXPECT_EQ(column.ValueAt(0, 1), "1");
  EXPECT_EQ(column.CodeAt(0, 2), kNoValue);
}

TEST(TimeVaryingColumnTest, SizeTracksEntities) {
  TimeVaryingColumn column("pubs", 4);
  EXPECT_EQ(column.size(), 0u);
  column.Resize(7);
  EXPECT_EQ(column.size(), 7u);
  EXPECT_EQ(column.num_times(), 4u);
}

TEST(TimeVaryingColumnTest, ValuesSharedAcrossCells) {
  TimeVaryingColumn column("pubs", 2);
  column.Resize(2);
  column.Set(0, 0, "1");
  column.Set(1, 1, "1");
  EXPECT_EQ(column.CodeAt(0, 0), column.CodeAt(1, 1));
}

// The column is time-major: appends push a per-time array, Resize grows
// every array. Interleaving the two with writes and a snapshot-style Restore
// must keep every cell's value and leave every new cell kNoValue.
TEST(TimeVaryingColumnTest, InterleavedGrowthKeepsEveryCell) {
  datagen::Pcg32 rng(17);
  TimeVaryingColumn column("pubs", 2);
  std::map<std::pair<std::size_t, std::size_t>, std::string> expected;
  auto check_all = [&](const TimeVaryingColumn& c, int step) {
    for (std::size_t n = 0; n < c.size(); ++n) {
      for (std::size_t t = 0; t < c.num_times(); ++t) {
        auto it = expected.find({n, t});
        if (it == expected.end()) {
          ASSERT_EQ(c.CodeAt(n, t), kNoValue) << "step " << step << ", " << n << "@" << t;
        } else {
          ASSERT_EQ(c.ValueAt(n, t), it->second)
              << "step " << step << ", " << n << "@" << t;
        }
      }
    }
  };
  for (int step = 0; step < 60; ++step) {
    switch (step % 4) {
      case 0:
        column.AppendTimes(1 + rng.NextBelow(2));
        break;
      case 1:
        column.Resize(column.size() + 1 + rng.NextBelow(3));
        break;
      case 2:
        for (int i = 0; i < 4; ++i) {
          const std::size_t n = rng.NextBelow(static_cast<std::uint32_t>(column.size()));
          const std::size_t t =
              rng.NextBelow(static_cast<std::uint32_t>(column.num_times()));
          const std::string value = "v" + std::to_string(rng.NextBelow(5));
          column.Set(n, t, value);
          expected[{n, t}] = value;
        }
        break;
      case 3: {  // continue on a restored copy, as after a snapshot load
        std::vector<std::vector<AttrValueId>> by_time;
        for (std::size_t t = 0; t < column.num_times(); ++t) {
          by_time.push_back(column.CodesAt(t));
        }
        TimeVaryingColumn restored("pubs", column.num_times());
        ASSERT_TRUE(restored.Restore(column.dictionary().values(), column.size(),
                                     std::move(by_time)));
        column = std::move(restored);
        break;
      }
    }
    check_all(column, step);
  }
  EXPECT_GE(column.num_times(), 17u);
  EXPECT_GE(column.size(), 16u);
}

TEST(TimeVaryingColumnTest, AppendAfterEmptyDomainKeepsEntities) {
  TimeVaryingColumn column("pubs", 0);
  column.Resize(3);
  EXPECT_EQ(column.size(), 3u);
  column.AppendTimes(1);
  column.Set(2, 0, "x");
  EXPECT_EQ(column.ValueAt(2, 0), "x");
  EXPECT_EQ(column.CodeAt(0, 0), kNoValue);
}

TEST(TimeVaryingColumnTest, RestoreFailsClosed) {
  TimeVaryingColumn column("pubs", 2);
  column.Resize(2);
  column.Set(1, 1, "a");
  const std::vector<std::string> dict = {"a", "b"};
  const std::vector<AttrValueId> two = {0, kNoValue};
  // Wrong number of time points, wrong entity count, a code past the
  // dictionary, a duplicate dictionary value.
  EXPECT_FALSE(column.Restore(dict, 2, {two}));
  EXPECT_FALSE(column.Restore(dict, 3, {two, two}));
  EXPECT_FALSE(column.Restore(dict, 2, {two, {0, 2}}));
  EXPECT_FALSE(column.Restore({"a", "a"}, 2, {two, two}));
  // The column is unchanged by every failed restore.
  EXPECT_EQ(column.size(), 2u);
  EXPECT_EQ(column.dictionary().size(), 1u);
  EXPECT_EQ(column.ValueAt(1, 1), "a");
  EXPECT_EQ(column.CodeAt(0, 0), kNoValue);

  ASSERT_TRUE(column.Restore(dict, 2, {two, {kNoValue, 1}}));
  EXPECT_EQ(column.ValueAt(0, 0), "a");
  EXPECT_EQ(column.ValueAt(1, 1), "b");
  EXPECT_EQ(column.CodeAt(1, 0), kNoValue);
}

TEST(TimeVaryingColumnDeath, TimeOutOfRangeAborts) {
  TimeVaryingColumn column("pubs", 2);
  column.Resize(1);
  EXPECT_DEATH(column.Set(0, 2, "x"), "time out of range");
}

TEST(StaticColumnDeath, EntityOutOfRangeAborts) {
  StaticColumn column("gender");
  column.Resize(1);
  EXPECT_DEATH(column.Set(3, "x"), "out of range");
}

TEST(StaticColumnDeath, ValueAtOnUnsetAborts) {
  StaticColumn column("gender");
  column.Resize(1);
  EXPECT_DEATH(column.ValueAt(0), "unset");
}

}  // namespace
}  // namespace graphtempo
