//===- tests/results_io_test.cpp - Result serialization -------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/DatalogFrontend.h"
#include "analysis/ResultsIO.h"
#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "support/Tsv.h"
#include "workload/PaperPrograms.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace ctp;
using ctx::Abstraction;

namespace {

std::string freshDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "/ctp_results_" + Tag;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Every file of \p Dir by name, with its bytes.
std::map<std::string, std::string> readDir(const std::string &Dir) {
  std::map<std::string, std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::ifstream In(E.path(), std::ios::binary);
    std::ostringstream Bytes;
    Bytes << In.rdbuf();
    Files[E.path().filename().string()] = Bytes.str();
  }
  return Files;
}

/// Writes \p R into a fresh directory tagged \p Tag and reads it back.
std::map<std::string, std::string> writeAndRead(const facts::FactDB &DB,
                                                const analysis::Results &R,
                                                const std::string &Tag) {
  std::string Dir = freshDir(Tag);
  EXPECT_EQ(analysis::writeResultsDir(DB, R, Dir), "");
  std::map<std::string, std::string> Files = readDir(Dir);
  std::filesystem::remove_all(Dir);
  return Files;
}

/// \p Bytes with its lines in `LC_ALL=C sort` order: plain byte order,
/// which is how std::string compares.
std::string cSorted(const std::string &Bytes) {
  std::vector<std::string> Lines;
  std::istringstream In(Bytes);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

const char *const ResultFiles[] = {"Pts.tsv",  "Hpts.tsv",  "Call.tsv",
                                   "Reach.tsv", "Gpts.tsv", "CiPts.tsv",
                                   "CiCall.tsv"};

TEST(ResultsIOTest, WritesAllRelations) {
  facts::FactDB DB = facts::extract(workload::figure5().P);
  analysis::Results R =
      analysis::solve(DB, ctx::oneCallH(Abstraction::TransformerString));
  std::string Dir = freshDir("fig5");
  ASSERT_EQ(analysis::writeResultsDir(DB, R, Dir), "");

  std::vector<std::vector<std::string>> Rows;
  ASSERT_TRUE(readTsvFile(Dir + "/Pts.tsv", Rows));
  EXPECT_EQ(Rows.size(), R.Stat.NumPts);
  // Each row: var name, heap name, rendered transformation with real
  // call-site names.
  bool SawId1Entry = false;
  for (const auto &Row : Rows) {
    ASSERT_EQ(Row.size(), 3u);
    SawId1Entry |= Row[2].find("id1") != std::string::npos;
  }
  EXPECT_TRUE(SawId1Entry);

  Rows.clear();
  ASSERT_TRUE(readTsvFile(Dir + "/Call.tsv", Rows));
  EXPECT_EQ(Rows.size(), R.Stat.NumCall);
  Rows.clear();
  ASSERT_TRUE(readTsvFile(Dir + "/Reach.tsv", Rows));
  EXPECT_EQ(Rows.size(), R.Stat.NumReach);
  Rows.clear();
  ASSERT_TRUE(readTsvFile(Dir + "/CiPts.tsv", Rows));
  EXPECT_EQ(Rows.size(), R.ciPts().size());
  std::filesystem::remove_all(Dir);
}

TEST(ResultsIOTest, ContextStringRenderingUsesNames) {
  facts::FactDB DB = facts::extract(workload::figure1().P);
  analysis::Results R =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::ContextString));
  std::string Dir = freshDir("fig1cs");
  ASSERT_EQ(analysis::writeResultsDir(DB, R, Dir), "");
  std::vector<std::vector<std::string>> Rows;
  ASSERT_TRUE(readTsvFile(Dir + "/Pts.tsv", Rows));
  // Object-flavour elements render as heap-site names (h3/h4/h5 are the
  // receiver sites of Figure 1).
  bool SawHeapName = false;
  for (const auto &Row : Rows)
    SawHeapName |= Row[2].find("h4") != std::string::npos;
  EXPECT_TRUE(SawHeapName);
  std::filesystem::remove_all(Dir);
}

TEST(ResultsIOTest, MissingDirectoryFails) {
  facts::FactDB DB = facts::extract(workload::figure7().P);
  analysis::Results R =
      analysis::solve(DB, ctx::oneCall(Abstraction::ContextString));
  EXPECT_NE(analysis::writeResultsDir(DB, R, "/nonexistent/ctp/results"),
            "");
}

TEST(ResultsIOTest, FailedWriteLeavesNoTemporaryFile) {
  facts::FactDB DB = facts::extract(workload::figure5().P);
  analysis::Results R =
      analysis::solve(DB, ctx::oneCallH(Abstraction::TransformerString));
  std::string Dir = freshDir("blocked");
  // A directory in Pts.tsv's place: the temporary file is written in
  // full, then cannot be renamed over it.
  std::filesystem::create_directories(Dir + "/Pts.tsv/occupied");
  EXPECT_NE(analysis::writeResultsDir(DB, R, Dir), "");
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    EXPECT_NE(E.path().extension(), ".tmp") << E.path();
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Canonical bytes: a result directory depends on the relations' values
// only, never on derivation order, interning order or back-end.
//===----------------------------------------------------------------------===//

struct Cell {
  std::string Tag;
  facts::FactDB DB;
  ctx::Config Cfg;
};

std::vector<Cell> canonicalCells() {
  std::vector<Cell> Cells;
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    const std::string Abs =
        A == Abstraction::ContextString ? "_cs" : "_ts";
    Cells.push_back({"fig1" + Abs, facts::extract(workload::figure1().P),
                     ctx::twoObjectH(A)});
    Cells.push_back({"fig5" + Abs, facts::extract(workload::figure5().P),
                     ctx::oneCallH(A)});
    Cells.push_back({"antlr" + Abs,
                     facts::extract(workload::generatePreset("antlr")),
                     ctx::twoObjectH(A)});
  }
  return Cells;
}

TEST(ResultsIOTest, EveryFileIsInByteOrder) {
  for (const Cell &C : canonicalCells()) {
    SCOPED_TRACE(C.Tag);
    analysis::Results R = analysis::solve(C.DB, C.Cfg);
    std::map<std::string, std::string> Files =
        writeAndRead(C.DB, R, "sorted_" + C.Tag);
    ASSERT_EQ(Files.size(), std::size(ResultFiles));
    for (const char *File : ResultFiles) {
      ASSERT_TRUE(Files.count(File)) << File;
      EXPECT_EQ(Files[File], cSorted(Files[File])) << File;
    }
    EXPECT_FALSE(Files["Pts.tsv"].empty());
  }
}

TEST(ResultsIOTest, BackEndsWriteIdenticalBytes) {
  for (const Cell &C : canonicalCells()) {
    SCOPED_TRACE(C.Tag);
    analysis::Results Native = analysis::solve(C.DB, C.Cfg);
    analysis::Results Datalog = analysis::solveViaDatalog(C.DB, C.Cfg);
    ASSERT_EQ(Datalog.Stat.Term, TerminationReason::Converged);
    EXPECT_EQ(writeAndRead(C.DB, Native, "native_" + C.Tag),
              writeAndRead(C.DB, Datalog, "datalog_" + C.Tag));
  }
}

TEST(ResultsIOTest, RowOrderDoesNotReachTheBytes) {
  for (const Cell &C : canonicalCells()) {
    SCOPED_TRACE(C.Tag);
    analysis::Results R = analysis::solve(C.DB, C.Cfg);
    std::map<std::string, std::string> Before =
        writeAndRead(C.DB, R, "forward_" + C.Tag);
    std::reverse(R.Pts.begin(), R.Pts.end());
    std::reverse(R.Hpts.begin(), R.Hpts.end());
    std::reverse(R.Call.begin(), R.Call.end());
    std::reverse(R.Reach.begin(), R.Reach.end());
    std::reverse(R.Gpts.begin(), R.Gpts.end());
    EXPECT_EQ(writeAndRead(C.DB, R, "reversed_" + C.Tag), Before);
  }
}

} // namespace
