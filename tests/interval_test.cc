#include "sim/interval.h"

#include <vector>

#include <gtest/gtest.h>

namespace eventhit::sim {
namespace {

TEST(IntervalTest, EmptyBasics) {
  const Interval empty = Interval::Empty();
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.length(), 0);
  EXPECT_FALSE(empty.Contains(0));
  EXPECT_EQ(empty, Interval::Empty());
}

TEST(IntervalTest, LengthIsInclusive) {
  EXPECT_EQ((Interval{3, 3}).length(), 1);
  EXPECT_EQ((Interval{3, 7}).length(), 5);
}

TEST(IntervalTest, Contains) {
  const Interval iv{2, 5};
  EXPECT_FALSE(iv.Contains(1));
  EXPECT_TRUE(iv.Contains(2));
  EXPECT_TRUE(iv.Contains(5));
  EXPECT_FALSE(iv.Contains(6));
}

TEST(IntervalTest, Overlaps) {
  const Interval a{2, 5};
  EXPECT_TRUE(a.Overlaps(Interval{5, 9}));
  EXPECT_TRUE(a.Overlaps(Interval{0, 2}));
  EXPECT_TRUE(a.Overlaps(Interval{3, 4}));
  EXPECT_FALSE(a.Overlaps(Interval{6, 9}));
  EXPECT_FALSE(a.Overlaps(Interval::Empty()));
}

TEST(IntervalTest, IntersectCases) {
  EXPECT_EQ(Intersect(Interval{2, 5}, Interval{4, 9}), (Interval{4, 5}));
  EXPECT_EQ(Intersect(Interval{2, 5}, Interval{2, 5}), (Interval{2, 5}));
  EXPECT_TRUE(Intersect(Interval{2, 5}, Interval{6, 9}).empty());
  EXPECT_TRUE(Intersect(Interval{2, 5}, Interval::Empty()).empty());
}

TEST(IntervalTest, DifferenceLength) {
  EXPECT_EQ(DifferenceLength(Interval{1, 10}, Interval{3, 5}), 7);
  EXPECT_EQ(DifferenceLength(Interval{1, 10}, Interval{1, 10}), 0);
  EXPECT_EQ(DifferenceLength(Interval{1, 10}, Interval::Empty()), 10);
  EXPECT_EQ(DifferenceLength(Interval::Empty(), Interval{1, 10}), 0);
}

TEST(IntervalTest, AllEmptyIntervalsEqual) {
  EXPECT_EQ((Interval{5, 2}), Interval::Empty());
}

TEST(IntervalTest, UnionLengthCases) {
  const auto union_length = [](std::vector<Interval> intervals) {
    return UnionLength(intervals);
  };
  EXPECT_EQ(union_length({}), 0);
  EXPECT_EQ(union_length({Interval::Empty(), Interval{9, 3}}), 0);
  // Empty intervals cover nothing, wherever the sort puts them.
  EXPECT_EQ(union_length({Interval{-5, -9}, Interval{4, 6}, Interval{7, 1}}),
            3);
  EXPECT_EQ(union_length({Interval{1, 10}, Interval{3, 5}}), 10);   // Nested.
  EXPECT_EQ(union_length({Interval{3, 5}, Interval{1, 10}}), 10);
  EXPECT_EQ(union_length({Interval{1, 4}, Interval{5, 8}}), 8);     // Touching.
  EXPECT_EQ(union_length({Interval{1, 5}, Interval{4, 8}}), 8);     // Overlap.
  EXPECT_EQ(union_length({Interval{1, 2}, Interval{6, 8}}), 5);     // Disjoint.
  EXPECT_EQ(union_length({Interval{6, 9}, Interval{1, 7}, Interval{2, 3},
                          Interval{12, 12}}),
            10);
}

TEST(IntervalTest, UnionLengthSortsInPlace) {
  std::vector<Interval> intervals{{7, 9}, Interval::Empty(), {1, 2}};
  EXPECT_EQ(UnionLength(intervals), 5);
  EXPECT_TRUE(intervals[0].empty());
  EXPECT_EQ(intervals[1], (Interval{1, 2}));
  EXPECT_EQ(intervals[2], (Interval{7, 9}));
}

}  // namespace
}  // namespace eventhit::sim
