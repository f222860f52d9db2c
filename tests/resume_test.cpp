//===- tests/resume_test.cpp - Checkpoint/resume equivalence --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// The crash-safety contract: interrupting a fixpoint mid-run and resuming
// from the checkpoint must produce results byte-identical to an
// uninterrupted run — same tuples in the same insertion order, same
// interned ids, same cumulative counters, the same `--out` bytes — on both
// evaluation back-ends.
// And every corrupted or mismatched snapshot must be detected and degrade
// to a cold start with a structured warning, never a crash.
//
//===----------------------------------------------------------------------===//

#include "analysis/Checkpoint.h"
#include "analysis/Configurations.h"
#include "analysis/DatalogFrontend.h"
#include "analysis/ResultsIO.h"
#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "support/FaultInjection.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace ctp;
using ctx::Abstraction;

namespace {

std::string freshDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "/ctp_resume_" + Tag;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

template <typename T>
std::vector<analysis::FactKey> keys(const std::vector<T> &V) {
  std::vector<analysis::FactKey> K;
  K.reserve(V.size());
  for (const auto &F : V)
    K.push_back(analysis::keyOf(F));
  return K;
}

/// Byte-identical: every relation in identical insertion order (which
/// implies identical interned TransformIds), plus cumulative counters.
void expectIdentical(const analysis::Results &A, const analysis::Results &B) {
  EXPECT_EQ(keys(A.Pts), keys(B.Pts));
  EXPECT_EQ(keys(A.Hpts), keys(B.Hpts));
  EXPECT_EQ(keys(A.Hload), keys(B.Hload));
  EXPECT_EQ(keys(A.Call), keys(B.Call));
  EXPECT_EQ(keys(A.Reach), keys(B.Reach));
  EXPECT_EQ(keys(A.Gpts), keys(B.Gpts));
  EXPECT_EQ(A.Stat.DomainSize, B.Stat.DomainSize);
  EXPECT_EQ(A.Stat.CollapsedPts, B.Stat.CollapsedPts);
  EXPECT_EQ(A.Stat.Progress.Iterations, B.Stat.Progress.Iterations);
  EXPECT_EQ(A.Stat.Progress.Derivations, B.Stat.Progress.Derivations);
  EXPECT_EQ(A.Stat.Progress.PendingWork, B.Stat.Progress.PendingWork);
}

/// The bytes of every file `ctp-analyze --out` would write for \p R.
std::map<std::string, std::string> outBytes(const facts::FactDB &DB,
                                            const analysis::Results &R,
                                            const std::string &Tag) {
  std::string Dir = freshDir("out_" + Tag);
  EXPECT_EQ(analysis::writeResultsDir(DB, R, Dir), "");
  std::map<std::string, std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::ifstream In(E.path(), std::ios::binary);
    std::ostringstream Bytes;
    Bytes << In.rdbuf();
    Files[E.path().filename().string()] = Bytes.str();
  }
  std::filesystem::remove_all(Dir);
  return Files;
}

analysis::Results solveNative(const facts::FactDB &DB, const ctx::Config &Cfg,
                              const BudgetSpec &Budget,
                              const std::string &CkptDir,
                              const analysis::SolverSnapshot *Resume,
                              bool Collapse = false) {
  analysis::SolverOptions SO;
  SO.Budget = Budget;
  SO.Checkpoint.Dir = CkptDir;
  SO.Resume = Resume;
  SO.CollapseSubsumedPts = Collapse;
  return analysis::solve(DB, Cfg, SO);
}

analysis::Results solveDatalog(const facts::FactDB &DB,
                               const ctx::Config &Cfg,
                               const BudgetSpec &Budget,
                               const std::string &CkptDir,
                               const analysis::SolverSnapshot *Resume) {
  analysis::DatalogSolveOptions DO;
  DO.Budget = Budget;
  DO.Checkpoint.Dir = CkptDir;
  DO.Resume = Resume;
  return analysis::solveViaDatalog(DB, Cfg, DO);
}

/// Interrupt at roughly half the converged derivation count, resume to
/// convergence, and compare against the uninterrupted baseline.
void checkInterruptResume(const facts::FactDB &DB, const ctx::Config &Cfg,
                          bool Datalog, const std::string &Tag,
                          bool Collapse = false) {
  SCOPED_TRACE(Tag);
  auto Run = [&](const BudgetSpec &Budget, const std::string &Dir,
                 const analysis::SolverSnapshot *Resume) {
    return Datalog ? solveDatalog(DB, Cfg, Budget, Dir, Resume)
                   : solveNative(DB, Cfg, Budget, Dir, Resume, Collapse);
  };

  analysis::Results Baseline = Run(BudgetSpec(), "", nullptr);
  ASSERT_EQ(Baseline.Stat.Term, TerminationReason::Converged);
  ASSERT_GT(Baseline.Stat.Progress.Derivations, 10u);

  std::string Dir = freshDir(Tag);
  BudgetSpec Half;
  Half.MaxDerivations = Baseline.Stat.Progress.Derivations / 2;
  analysis::Results Partial = Run(Half, Dir, nullptr);
  ASSERT_NE(Partial.Stat.Term, TerminationReason::Converged);
  ASSERT_TRUE(
      std::filesystem::exists(analysis::checkpointPath(Dir)))
      << "budget-exhausted run must leave a snapshot";
  EXPECT_EQ(Partial.Stat.CheckpointError, "");

  analysis::SnapshotProbe Probe = analysis::probeSnapshot(
      Dir, DB, Cfg, Datalog, !Datalog && Collapse);
  ASSERT_EQ(Probe.Status, analysis::ResumeStatus::Resumed) << Probe.Warning;
  EXPECT_NE(Probe.Snap.Term, TerminationReason::Converged)
      << "trip-time snapshot must carry the trip reason in its trailer";

  analysis::Results Resumed = Run(BudgetSpec(), Dir, &Probe.Snap);
  ASSERT_EQ(Resumed.Stat.Term, TerminationReason::Converged);
  EXPECT_EQ(Resumed.Stat.CheckpointError, "");
  expectIdentical(Baseline, Resumed);
  // The --out directory of the resumed run is the cold run's, byte for
  // byte.
  EXPECT_EQ(outBytes(DB, Resumed, Tag + "_resumed"),
            outBytes(DB, Baseline, Tag + "_cold"));
  EXPECT_FALSE(std::filesystem::exists(analysis::checkpointPath(Dir)))
      << "a converged run must remove its checkpoint";
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Resume equivalence, native back-end: 2 presets x 2 configs.
//===----------------------------------------------------------------------===//

TEST(ResumeNative, AntlrTwoObjectH) {
  facts::FactDB DB = facts::extract(workload::generatePreset("antlr"));
  checkInterruptResume(DB, ctx::twoObjectH(Abstraction::TransformerString),
                       false, "native_antlr_2objH");
}

TEST(ResumeNative, AntlrOneObject) {
  facts::FactDB DB = facts::extract(workload::generatePreset("antlr"));
  checkInterruptResume(DB, ctx::oneObject(Abstraction::TransformerString),
                       false, "native_antlr_1obj");
}

TEST(ResumeNative, PmdTwoObjectH) {
  facts::FactDB DB = facts::extract(workload::generatePreset("pmd"));
  checkInterruptResume(DB, ctx::twoObjectH(Abstraction::TransformerString),
                       false, "native_pmd_2objH");
}

TEST(ResumeNative, PmdOneObjectContextString) {
  facts::FactDB DB = facts::extract(workload::generatePreset("pmd"));
  checkInterruptResume(DB, ctx::oneObject(Abstraction::ContextString),
                       false, "native_pmd_1obj_cs");
}

TEST(ResumeNative, CollapseModeEquivalence) {
  facts::FactDB DB = facts::extract(workload::generatePreset("bloat"));
  checkInterruptResume(DB, ctx::twoObjectH(Abstraction::TransformerString),
                       false, "native_bloat_collapse", /*Collapse=*/true);
}

TEST(ResumeNative, SurvivesTwoInterruptions) {
  facts::FactDB DB = facts::extract(workload::generatePreset("antlr"));
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::Results Baseline = solveNative(DB, Cfg, {}, "", nullptr);
  ASSERT_EQ(Baseline.Stat.Term, TerminationReason::Converged);

  std::string Dir = freshDir("native_twice");
  BudgetSpec Third;
  Third.MaxDerivations = Baseline.Stat.Progress.Derivations / 3;

  analysis::Results R = solveNative(DB, Cfg, Third, Dir, nullptr);
  ASSERT_NE(R.Stat.Term, TerminationReason::Converged);
  for (int Leg = 0; Leg < 2; ++Leg) {
    analysis::SnapshotProbe P =
        analysis::probeSnapshot(Dir, DB, Cfg, false, false);
    ASSERT_EQ(P.Status, analysis::ResumeStatus::Resumed) << P.Warning;
    // Second leg trips again mid-run; third runs to convergence.
    R = solveNative(DB, Cfg, Leg == 0 ? Third : BudgetSpec(), Dir, &P.Snap);
  }
  ASSERT_EQ(R.Stat.Term, TerminationReason::Converged);
  expectIdentical(Baseline, R);
  EXPECT_EQ(outBytes(DB, R, "twice_resumed"),
            outBytes(DB, Baseline, "twice_cold"));
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Resume equivalence, datalog back-end: 2 presets x 2 configs.
//===----------------------------------------------------------------------===//

TEST(ResumeDatalog, LuindexOneObject) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  checkInterruptResume(DB, ctx::oneObject(Abstraction::TransformerString),
                       true, "datalog_luindex_1obj");
}

TEST(ResumeDatalog, LuindexTwoObjectH) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  checkInterruptResume(DB, ctx::twoObjectH(Abstraction::TransformerString),
                       true, "datalog_luindex_2objH");
}

TEST(ResumeDatalog, PmdOneObject) {
  facts::FactDB DB = facts::extract(workload::generatePreset("pmd"));
  checkInterruptResume(DB, ctx::oneObject(Abstraction::TransformerString),
                       true, "datalog_pmd_1obj");
}

TEST(ResumeDatalog, PmdTwoObjectH) {
  facts::FactDB DB = facts::extract(workload::generatePreset("pmd"));
  checkInterruptResume(DB, ctx::twoObjectH(Abstraction::TransformerString),
                       true, "datalog_pmd_2objH");
}

//===----------------------------------------------------------------------===//
// Corruption recovery: every injected fault is detected and degrades to
// a cold start with a structured warning.
//===----------------------------------------------------------------------===//

/// Leaves a valid mid-run snapshot for antlr/2-object+H in \p Dir.
facts::FactDB makeInterruptedSnapshot(const std::string &Dir,
                                      ctx::Config &CfgOut) {
  facts::FactDB DB = facts::extract(workload::generatePreset("antlr"));
  CfgOut = ctx::twoObjectH(Abstraction::TransformerString);
  BudgetSpec B;
  B.MaxDerivations = 8000;
  analysis::Results R = solveNative(DB, CfgOut, B, Dir, nullptr);
  EXPECT_NE(R.Stat.Term, TerminationReason::Converged);
  EXPECT_TRUE(std::filesystem::exists(analysis::checkpointPath(Dir)));
  return DB;
}

TEST(Recovery, BitFlippedFileIsDetectedAndColdStarts) {
  std::string Dir = freshDir("flip");
  ctx::Config Cfg;
  facts::FactDB DB = makeInterruptedSnapshot(Dir, Cfg);

  // Flip one byte in the middle of the snapshot on disk.
  std::string Path = analysis::checkpointPath(Dir);
  std::vector<char> Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 100u);
  Bytes[Bytes.size() / 2] ^= 0x20;
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  analysis::SnapshotProbe P =
      analysis::probeSnapshot(Dir, DB, Cfg, false, false);
  EXPECT_EQ(P.Status, analysis::ResumeStatus::CorruptSnapshot);
  EXPECT_NE(P.Warning.find("falling back to cold start"), std::string::npos)
      << P.Warning;

  // The full pipeline: resume requested, corruption detected, cold start
  // still converges.
  analysis::FallbackOptions FO;
  FO.Checkpoint.Dir = Dir;
  FO.Resume = true;
  analysis::FallbackOutcome O = analysis::solveWithFallback(DB, Cfg, FO);
  EXPECT_EQ(O.Resume, analysis::ResumeStatus::CorruptSnapshot);
  EXPECT_NE(O.ResumeWarning.find("cold start"), std::string::npos);
  EXPECT_EQ(O.R.Stat.Term, TerminationReason::Converged);
  EXPECT_FALSE(O.Degraded);
  EXPECT_EQ(O.RungUsed, 0u);
  std::filesystem::remove_all(Dir);
}

TEST(Recovery, EveryInjectedWriterFaultIsDetected) {
  for (const char *Fault : {"torn", "short", "bitflip"}) {
    SCOPED_TRACE(Fault);
    std::string Dir = freshDir(std::string("fault_") + Fault);
    ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
    facts::FactDB DB = facts::extract(workload::generatePreset("antlr"));

    fault::reset();
    ASSERT_TRUE(fault::armSnapshotFaultByName(Fault, /*Sticky=*/true));
    BudgetSpec B;
    B.MaxDerivations = 8000;
    analysis::Results R = solveNative(DB, Cfg, B, Dir, nullptr);
    fault::reset();
    ASSERT_NE(R.Stat.Term, TerminationReason::Converged);

    analysis::SnapshotProbe P =
        analysis::probeSnapshot(Dir, DB, Cfg, false, false);
    EXPECT_EQ(P.Status, analysis::ResumeStatus::CorruptSnapshot)
        << "written under fault '" << Fault << "': " << P.Warning;
    EXPECT_NE(P.Warning.find("cold start"), std::string::npos);
    std::filesystem::remove_all(Dir);
  }
}

TEST(Recovery, TruncatedFileIsDetected) {
  std::string Dir = freshDir("trunc");
  ctx::Config Cfg;
  facts::FactDB DB = makeInterruptedSnapshot(Dir, Cfg);

  std::string Path = analysis::checkpointPath(Dir);
  std::filesystem::resize_file(Path,
                               std::filesystem::file_size(Path) / 2);
  analysis::SnapshotProbe P =
      analysis::probeSnapshot(Dir, DB, Cfg, false, false);
  EXPECT_EQ(P.Status, analysis::ResumeStatus::CorruptSnapshot) << P.Warning;
  std::filesystem::remove_all(Dir);
}

TEST(Recovery, MismatchedSnapshotColdStarts) {
  std::string Dir = freshDir("mismatch");
  ctx::Config Cfg;
  facts::FactDB DB = makeInterruptedSnapshot(Dir, Cfg);

  // Different fact set (same schema, different program).
  facts::FactDB Other = facts::extract(workload::generatePreset("pmd"));
  analysis::SnapshotProbe P =
      analysis::probeSnapshot(Dir, Other, Cfg, false, false);
  EXPECT_EQ(P.Status, analysis::ResumeStatus::Mismatch);
  EXPECT_NE(P.Warning.find("cold start"), std::string::npos);

  // Different configuration.
  P = analysis::probeSnapshot(
      Dir, DB, ctx::oneObject(Abstraction::TransformerString), false, false);
  EXPECT_EQ(P.Status, analysis::ResumeStatus::Mismatch);

  // Other back-end.
  P = analysis::probeSnapshot(Dir, DB, Cfg, /*UseDatalog=*/true, false);
  EXPECT_EQ(P.Status, analysis::ResumeStatus::Mismatch);

  // Other collapse mode.
  P = analysis::probeSnapshot(Dir, DB, Cfg, false, /*Collapse=*/true);
  EXPECT_EQ(P.Status, analysis::ResumeStatus::Mismatch);

  // The matching probe still resumes — the file itself is fine.
  P = analysis::probeSnapshot(Dir, DB, Cfg, false, false);
  EXPECT_EQ(P.Status, analysis::ResumeStatus::Resumed) << P.Warning;
  std::filesystem::remove_all(Dir);
}

TEST(Recovery, EmptyDirProbesAsNoSnapshot) {
  std::string Dir = freshDir("empty");
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::SnapshotProbe P = analysis::probeSnapshot(
      Dir, DB, ctx::oneObject(Abstraction::TransformerString), false, false);
  EXPECT_EQ(P.Status, analysis::ResumeStatus::NoSnapshot);
  EXPECT_EQ(P.Warning, "");
  EXPECT_EQ(analysis::probeSnapshot("", DB,
                                    ctx::oneObject(
                                        Abstraction::TransformerString),
                                    false, false)
                .Status,
            analysis::ResumeStatus::NoSnapshot);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Resume-over-degrade: a budget-exhausted rung 0 with checkpointing on
// returns immediately with a snapshot instead of descending the ladder.
//===----------------------------------------------------------------------===//

TEST(FallbackResume, ExhaustedRungZeroSavesInsteadOfDescending) {
  facts::FactDB DB = facts::extract(workload::generatePreset("antlr"));
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::Results Baseline = solveNative(DB, Cfg, {}, "", nullptr);
  ASSERT_EQ(Baseline.Stat.Term, TerminationReason::Converged);

  std::string Dir = freshDir("fb");
  analysis::FallbackOptions FO;
  FO.Budget.MaxDerivations = Baseline.Stat.Progress.Derivations / 2;
  FO.Checkpoint.Dir = Dir;
  analysis::FallbackOutcome O = analysis::solveWithFallback(DB, Cfg, FO);
  EXPECT_EQ(O.Attempts.size(), 1u) << "must not descend past rung 0";
  EXPECT_EQ(O.RungUsed, 0u);
  EXPECT_TRUE(O.Degraded);
  EXPECT_TRUE(O.SnapshotSaved);

  // Re-invocation with resume continues to the full precise answer.
  analysis::FallbackOutcome O2;
  {
    analysis::FallbackOptions FR;
    FR.Checkpoint.Dir = Dir;
    FR.Resume = true;
    O2 = analysis::solveWithFallback(DB, Cfg, FR);
  }
  EXPECT_EQ(O2.Resume, analysis::ResumeStatus::Resumed) << O2.ResumeWarning;
  EXPECT_FALSE(O2.Degraded);
  ASSERT_EQ(O2.R.Stat.Term, TerminationReason::Converged);
  expectIdentical(Baseline, O2.R);
  std::filesystem::remove_all(Dir);
}

TEST(FallbackResume, MemoryTripCheckpointsThenResumesByteIdentically) {
  facts::FactDB DB = facts::extract(workload::generatePreset("antlr"));
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::Results Baseline = solveNative(DB, Cfg, {}, "", nullptr);
  ASSERT_EQ(Baseline.Stat.Term, TerminationReason::Converged);

  std::string Dir = freshDir("memtrip");
  analysis::FallbackOptions FO;
  FO.Checkpoint.Dir = Dir;
  fault::reset();
  // One-shot simulated pressure mid-solve: unlike a derivation cap
  // (which saves *instead of* descending, see above), a memory trip
  // checkpoints AND descends — the machine is out of room for this
  // rung, so the caller still gets a cheaper answer now.
  fault::armMemFault(fault::MemFault::SoftPressure, 50);
  analysis::FallbackOutcome O = analysis::solveWithFallback(DB, Cfg, FO);
  fault::reset();
  ASSERT_GE(O.Attempts.size(), 2u) << "memory trip must descend";
  EXPECT_EQ(O.Attempts[0].Term, TerminationReason::MemoryBudget);
  EXPECT_TRUE(O.SnapshotSaved) << "memory trip must checkpoint first";
  EXPECT_TRUE(O.Degraded);

  // Once pressure is gone, resuming the rung-0 snapshot must land on
  // the exact fixpoint of an uninterrupted precise solve.
  analysis::FallbackOutcome O2;
  {
    analysis::FallbackOptions FR;
    FR.Checkpoint.Dir = Dir;
    FR.Resume = true;
    O2 = analysis::solveWithFallback(DB, Cfg, FR);
  }
  EXPECT_EQ(O2.Resume, analysis::ResumeStatus::Resumed) << O2.ResumeWarning;
  EXPECT_FALSE(O2.Degraded);
  ASSERT_EQ(O2.R.Stat.Term, TerminationReason::Converged);
  expectIdentical(Baseline, O2.R);
  std::filesystem::remove_all(Dir);
}

TEST(FallbackResume, WithoutCheckpointingStillDescends) {
  facts::FactDB DB = facts::extract(workload::generatePreset("antlr"));
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::FallbackOptions FO;
  FO.Budget.MaxDerivations = 2000;
  analysis::FallbackOutcome O = analysis::solveWithFallback(DB, Cfg, FO);
  EXPECT_GT(O.Attempts.size(), 1u)
      << "the pre-checkpoint ladder semantics must be unchanged";
  EXPECT_FALSE(O.SnapshotSaved);
}

} // namespace
