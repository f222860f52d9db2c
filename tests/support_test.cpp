//===- tests/support_test.cpp - Support library tests ---------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "support/BoundedVector.h"
#include "support/Hashing.h"
#include "support/Interner.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Tsv.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace ctp;

namespace {

TEST(BoundedVectorTest, BasicOps) {
  BoundedVector<std::uint32_t, 4> V;
  EXPECT_TRUE(V.empty());
  V.push_back(10);
  V.push_back(20);
  EXPECT_EQ(V.size(), 2u);
  EXPECT_EQ(V[0], 10u);
  EXPECT_EQ(V.back(), 20u);
  V.pop_back();
  EXPECT_EQ(V.size(), 1u);
}

TEST(BoundedVectorTest, PrefixAndDrop) {
  BoundedVector<std::uint32_t, 4> V = {1, 2, 3};
  EXPECT_EQ(V.takePrefix(2), (BoundedVector<std::uint32_t, 4>{1, 2}));
  EXPECT_EQ(V.takePrefix(9), V);
  EXPECT_EQ(V.dropPrefix(1), (BoundedVector<std::uint32_t, 4>{2, 3}));
  EXPECT_EQ(V.dropPrefix(9), (BoundedVector<std::uint32_t, 4>{}));
}

TEST(BoundedVectorTest, EqualityIgnoresStalePastEnd) {
  BoundedVector<std::uint32_t, 4> A = {1, 2, 3};
  A.pop_back();
  BoundedVector<std::uint32_t, 4> B = {1, 2};
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(BoundedVectorTest, LexicographicOrder) {
  BoundedVector<std::uint32_t, 4> A = {1, 2};
  BoundedVector<std::uint32_t, 4> B = {1, 2, 0};
  BoundedVector<std::uint32_t, 4> C = {1, 3};
  EXPECT_TRUE(A < B);
  EXPECT_TRUE(B < C);
  EXPECT_FALSE(C < A);
}

TEST(InternerTest, StableIdsAndLookup) {
  Interner<std::string> I;
  std::uint32_t A = I.intern("alpha");
  std::uint32_t B = I.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(I.intern("alpha"), A);
  EXPECT_EQ(I[A], "alpha");
  EXPECT_EQ(I.lookup("beta"), B);
  EXPECT_EQ(I.lookup("gamma"), UINT32_MAX);
  EXPECT_EQ(I.size(), 2u);
}

TEST(InternerTest, ManyValuesReferenceStability) {
  Interner<std::string> I;
  std::uint32_t First = I.intern("v0");
  const std::string &Ref = I[First];
  for (int K = 1; K < 1000; ++K)
    I.intern("v" + std::to_string(K));
  EXPECT_EQ(Ref, "v0"); // Deque storage keeps references valid.
  EXPECT_EQ(I.size(), 1000u);
}

TEST(RngTest, DeterministicStreams) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Diverged = false;
  Rng A2(42);
  for (int I = 0; I < 100; ++I)
    if (A2.next() != C.next())
      Diverged = true;
  EXPECT_TRUE(Diverged);
}

TEST(RngTest, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    std::uint64_t X = R.nextInRange(5, 8);
    EXPECT_GE(X, 5u);
    EXPECT_LE(X, 8u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(HashingTest, MixDistinguishesNeighbours) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(hashCombine(0, 1), hashCombine(1, 0));
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({4.0}), 4.0);
  EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geometricMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(TsvTest, SplitJoinRoundTrip) {
  std::vector<std::string> Fields = {"a", "", "b c", "d"};
  EXPECT_EQ(splitTsvLine(joinTsvLine(Fields)), Fields);
  EXPECT_EQ(splitTsvLine("solo"), std::vector<std::string>{"solo"});
}

TEST(TsvTest, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "/ctp_tsv_test.facts";
  std::vector<std::vector<std::string>> Rows = {
      {"x", "y"}, {"1", "2"}, {"hello world", "tab\\less"}};
  ASSERT_TRUE(writeTsvFile(Path, Rows));
  std::vector<std::vector<std::string>> Back;
  ASSERT_TRUE(readTsvFile(Path, Back));
  EXPECT_EQ(Back, Rows);
  std::remove(Path.c_str());
}

TEST(TsvTest, FailedWriteIsReported) {
  // /dev/full opens for writing and fails every write with ENOSPC: the
  // failure surfaces when the rows are flushed, not when the file opens.
  if (!std::ifstream("/dev/full").is_open())
    GTEST_SKIP() << "no /dev/full on this system";
  std::vector<std::vector<std::string>> Rows = {{"x", "y"}, {"1", "2"}};
  EXPECT_FALSE(writeTsvFile("/dev/full", Rows));
}

TEST(TsvTest, MissingFileFails) {
  std::vector<std::vector<std::string>> Rows;
  EXPECT_FALSE(readTsvFile("/nonexistent/path/file.facts", Rows));
}

} // namespace
