// Unit tests for the bitmap extension (paper §6): bitsets, and equivalence
// of bitmap AND-joins with posting-list intersection.
#include <gtest/gtest.h>

#include "paper_fixtures.h"
#include "solap/index/bitmap.h"
#include "solap/index/build_index.h"
#include "solap/index/container.h"

namespace solap {
namespace {

TEST(BitmapTest, SetGetAndCount) {
  Bitmap b(130);
  EXPECT_EQ(b.num_bits(), 130u);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Get(0));
  EXPECT_TRUE(b.Get(63));
  EXPECT_TRUE(b.Get(64));
  EXPECT_TRUE(b.Get(129));
  EXPECT_FALSE(b.Get(1));
  EXPECT_EQ(b.Count(), 4u);
}

TEST(BitmapTest, FromSidsAndToSidsRoundTrip) {
  std::vector<Sid> sids = {3, 7, 64, 100};
  Bitmap b = Bitmap::FromSids(sids, 128);
  EXPECT_EQ(b.ToSids(), sids);
  EXPECT_EQ(b.ByteSize(), 2 * sizeof(uint64_t));
}

TEST(BitmapTest, AndOrMatchSetSemantics) {
  Bitmap a = Bitmap::FromSids({1, 3, 5, 7}, 64);
  Bitmap b = Bitmap::FromSids({3, 4, 5, 8}, 64);
  Bitmap i = a;
  i.AndWith(b);
  EXPECT_EQ(i.ToSids(), (std::vector<Sid>{3, 5}));
  Bitmap u = a;
  u.OrWith(b);
  EXPECT_EQ(u.ToSids(), (std::vector<Sid>{1, 3, 4, 5, 7, 8}));
}

// The §6 bitmap extension is served by the bitmap containers inside every
// SidList: a word-parallel AND of two lists' bitmaps must equal the
// container intersection (adaptive and scalar) of the same Fig. 8 lists.
TEST(BitmapTest, AndJoinEqualsSidListIntersection) {
  auto set = testing::Fig8RawGroups();
  auto reg = testing::Fig8Hierarchies();
  IndexShape shape;
  shape.positions.assign(2, LevelRef{"symbol", "symbol"});
  ScanStats stats;
  auto l2 = BuildIndex(&set->groups()[0], *set, reg.get(), shape, &stats);
  ASSERT_TRUE(l2.ok());
  ASSERT_GT((*l2)->num_lists(), 1u);
  const size_t n = set->groups()[0].num_sequences();

  // Every pair of lists: bitmap AND == container intersection.
  std::vector<Sid> adaptive, scalar;
  for (const auto& [k1, list1] : (*l2)->lists()) {
    for (const auto& [k2, list2] : (*l2)->lists()) {
      Bitmap b = Bitmap::FromSids(list1.ToVector(), n);
      b.AndWith(Bitmap::FromSids(list2.ToVector(), n));
      IntersectSidLists(list1, list2, adaptive);
      IntersectSidListsScalar(list1, list2, scalar);
      EXPECT_EQ(b.ToSids(), adaptive);
      EXPECT_EQ(b.ToSids(), scalar);
    }
  }
}

}  // namespace
}  // namespace solap
