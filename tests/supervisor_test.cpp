//===- tests/supervisor_test.cpp - Batch supervisor fault tolerance -------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// The fleet-robustness contract of tools/ctp-batch: every way a child can
// die lands in the right triage class; the retry policy escalates
// fresh → --resume → --fallback-without-checkpoint exactly as documented;
// and the JSONL journal is a replayable source of truth — re-invoking a
// supervisor over a half-finished work tree re-runs nothing that finished
// and renders those jobs' report rows byte-identically.
//
// Child processes are ctp-crashkid (tests/ctp-crashkid.cpp), a helper
// that misbehaves on demand; one end-to-end case drives the real
// ctp-analyze. Both paths come in via env (CTP_CRASHKID, CTP_ANALYZE),
// set by the ctest harness.
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"
#include "support/Durability.h"
#include "support/Subprocess.h"
#include "support/Supervisor.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>

// A sanitizer-instrumented child dies differently at the kernel boundary:
// the runtime intercepts SIGSEGV to report it (so the parent sees an
// exit, not a signal), and its shadow mapping cannot be reserved under a
// small RLIMIT_AS, so the child dies before the allocator can print the
// signature triage keys on. The SIGSEGV child runs with the ASan handler
// off (ASAN_OPTIONS=handle_segv=0); the TSAN runtime offers no such
// switch, so that test skips under TSAN. The RLIMIT_AS test skips under
// either sanitizer, as the oom_drill ctest is not registered in sanitizer
// builds. Everything else in this file (including the heartbeat stress)
// runs.
#if defined(__SANITIZE_THREAD__)
#define CTP_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CTP_UNDER_TSAN 1
#endif
#endif
#ifndef CTP_UNDER_TSAN
#define CTP_UNDER_TSAN 0
#endif
#if defined(__SANITIZE_ADDRESS__)
#define CTP_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CTP_UNDER_ASAN 1
#endif
#endif
#ifndef CTP_UNDER_ASAN
#define CTP_UNDER_ASAN 0
#endif

using namespace ctp;
using namespace ctp::batch;

namespace {

std::string freshDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "/ctp_supervisor_" + Tag;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::string crashkidPath() {
  const char *P = std::getenv("CTP_CRASHKID");
  return P ? P : "";
}

/// Scoped environment variable (crashkid reads its mode from env).
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    ::setenv(Name, Value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (Saved)
      ::setenv(Name, Saved->c_str(), 1);
    else
      ::unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

SupervisorOptions fastOpts(const std::string &Tag) {
  SupervisorOptions O;
  O.AnalyzePath = crashkidPath();
  O.WorkDir = freshDir(Tag);
  O.PollIntervalMs = 2;
  O.BackoffMs = 1;
  O.BackoffCapMs = 4;
  O.HeartbeatIntervalMs = 10;
  return O;
}

std::vector<std::string> slurpLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string L;
  while (std::getline(In, L))
    Lines.push_back(L);
  return Lines;
}

//===----------------------------------------------------------------------===//
// Triage classification (pure).
//===----------------------------------------------------------------------===//

proc::ExitStatus exited(int Code) {
  proc::ExitStatus S;
  S.Exited = true;
  S.Code = Code;
  return S;
}

proc::ExitStatus signalled(int Sig) {
  proc::ExitStatus S;
  S.Signalled = true;
  S.Signal = Sig;
  return S;
}

TEST(TriageTest, ExitCodesMapToProtocol) {
  KillAttribution None;
  EXPECT_EQ(classifyAttempt(exited(0), None, ""), AttemptClass::ExitOk);
  EXPECT_EQ(classifyAttempt(exited(3), None, ""),
            AttemptClass::ExitDegraded);
  EXPECT_EQ(classifyAttempt(exited(1), None, ""), AttemptClass::ExitError);
  EXPECT_EQ(classifyAttempt(exited(127), None, ""),
            AttemptClass::ExitError);
}

TEST(TriageTest, SupervisorKillsOutrankSignalDecoding) {
  KillAttribution Watchdog;
  Watchdog.Watchdog = true;
  EXPECT_EQ(classifyAttempt(signalled(SIGKILL), Watchdog, ""),
            AttemptClass::WatchdogStall);
  KillAttribution Timeout;
  Timeout.Timeout = true;
  EXPECT_EQ(classifyAttempt(signalled(SIGKILL), Timeout, ""),
            AttemptClass::Timeout);
  KillAttribution Chaos;
  Chaos.Chaos = true;
  EXPECT_EQ(classifyAttempt(signalled(SIGKILL), Chaos, ""),
            AttemptClass::ChaosKill);
}

TEST(TriageTest, RlimitSignatures) {
  KillAttribution None;
  EXPECT_EQ(classifyAttempt(signalled(SIGXCPU), None, ""),
            AttemptClass::RlimitCpu);
  EXPECT_EQ(classifyAttempt(signalled(SIGABRT), None,
                            "terminate called after throwing an instance "
                            "of 'std::bad_alloc'"),
            AttemptClass::RlimitMem);
  // A plain abort without the allocator's signature is an honest crash.
  EXPECT_EQ(classifyAttempt(signalled(SIGABRT), None, "assert failed"),
            AttemptClass::CrashSignal);
  EXPECT_EQ(classifyAttempt(signalled(SIGSEGV), None, ""),
            AttemptClass::CrashSignal);
}

TEST(TriageTest, TerminationSidecarBeatsATruncatedStderrTail) {
  KillAttribution None;
  // A runtime backtrace can push the allocator's message out of the
  // bounded stderr tail; the child's structured sidecar still names the
  // reason, and triage must prefer it.
  EXPECT_EQ(classifyAttempt(signalled(SIGABRT),
                            None, "...pages of backtrace frames...",
                            "reason=bad_alloc"),
            AttemptClass::RlimitMem);
  // A sidecar naming a clean reason must not launder an honest crash
  // into rlimit-mem.
  EXPECT_EQ(classifyAttempt(signalled(SIGABRT), None, "assert failed",
                            "reason=Converged degraded=0"),
            AttemptClass::CrashSignal);
}

TEST(TriageTest, SpawnFailureIsItsOwnClass) {
  KillAttribution None;
  EXPECT_EQ(classifyAttempt(proc::ExitStatus(), None, ""),
            AttemptClass::SpawnFailure);
}

//===----------------------------------------------------------------------===//
// Subprocess primitive.
//===----------------------------------------------------------------------===//

TEST(SubprocessTest, ExitCodeAndSignalDecoding) {
  if (CTP_UNDER_TSAN)
    GTEST_SKIP() << "TSAN intercepts the child's SIGSEGV (see file "
                    "header)";
  ASSERT_FALSE(crashkidPath().empty()) << "CTP_CRASHKID not set";
  {
    proc::SpawnSpec Spec;
    Spec.Argv = {crashkidPath()};
    Spec.ExtraEnv = {"CTP_CRASHKID_MODE=exit", "CTP_CRASHKID_ARG=7"};
    proc::Child C;
    ASSERT_EQ(C.spawn(Spec), "");
    C.wait();
    EXPECT_TRUE(C.status().Exited);
    EXPECT_EQ(C.status().Code, 7);
  }
  {
    proc::SpawnSpec Spec;
    Spec.Argv = {crashkidPath()};
    Spec.ExtraEnv = {"CTP_CRASHKID_MODE=signal", "CTP_CRASHKID_ARG=11"};
    // Leave the SIGSEGV to the kernel in ASan builds (see file header);
    // other builds ignore the variable.
    const char *Set = std::getenv("ASAN_OPTIONS");
    const std::string Opts = Set && *Set ? std::string(Set) + ":" : "";
    ScopedEnv NoSegvHandler("ASAN_OPTIONS", Opts + "handle_segv=0");
    proc::Child C;
    ASSERT_EQ(C.spawn(Spec), "");
    C.wait();
    EXPECT_TRUE(C.status().Signalled);
    EXPECT_EQ(C.status().Signal, SIGSEGV);
  }
}

TEST(SubprocessTest, ExecFailureSurfacesAs127) {
  proc::SpawnSpec Spec;
  Spec.Argv = {"/nonexistent/ctp/binary"};
  proc::Child C;
  ASSERT_EQ(C.spawn(Spec), "");
  C.wait();
  EXPECT_TRUE(C.status().Exited);
  EXPECT_EQ(C.status().Code, 127);
}

TEST(SubprocessTest, StderrTailIsCapturedAndCapped) {
  ASSERT_FALSE(crashkidPath().empty());
  proc::SpawnSpec Spec;
  Spec.Argv = {crashkidPath()};
  // Unknown mode prints a diagnostic mentioning the mode name.
  Spec.ExtraEnv = {"CTP_CRASHKID_MODE=definitely-not-a-mode"};
  Spec.StderrTailBytes = 16;
  proc::Child C;
  ASSERT_EQ(C.spawn(Spec), "");
  C.wait();
  EXPECT_TRUE(C.status().Exited);
  EXPECT_EQ(C.status().Code, 2);
  EXPECT_LE(C.stderrTail().size(), 16u);
  EXPECT_FALSE(C.stderrTail().empty());
}

//===----------------------------------------------------------------------===//
// Watchdog, timeout, and rlimit triage through real children.
//===----------------------------------------------------------------------===//

JobSpec oneJob() { return {"kid", "mode", "native"}; }

TEST(SupervisorTest, WatchdogCatchesSilentChild) {
  ASSERT_FALSE(crashkidPath().empty());
  ScopedEnv Mode("CTP_CRASHKID_MODE", "hang");
  SupervisorOptions O = fastOpts("watchdog");
  O.StallTimeoutMs = 250;
  O.MaxRetries = 0;
  std::string Err;
  BatchReport R = Supervisor(O).run({oneJob()}, Err);
  ASSERT_EQ(Err, "");
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Failed);
  EXPECT_EQ(R.Jobs[0].Triage, "watchdog-stall");
}

TEST(SupervisorTest, WallTimeoutFiresDespiteLiveHeartbeat) {
  ASSERT_FALSE(crashkidPath().empty());
  ScopedEnv Mode("CTP_CRASHKID_MODE", "beat");
  ScopedEnv Arg("CTP_CRASHKID_ARG", "60000");
  SupervisorOptions O = fastOpts("timeout");
  O.StallTimeoutMs = 10000; // Generous: the child *is* beating.
  O.JobTimeoutMs = 250;
  O.MaxRetries = 0;
  std::string Err;
  BatchReport R = Supervisor(O).run({oneJob()}, Err);
  ASSERT_EQ(Err, "");
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Failed);
  EXPECT_EQ(R.Jobs[0].Triage, "timeout");
}

TEST(SupervisorTest, CpuRlimitClassifiedAsRlimitCpu) {
  ASSERT_FALSE(crashkidPath().empty());
  ScopedEnv Mode("CTP_CRASHKID_MODE", "spin");
  SupervisorOptions O = fastOpts("rlimitcpu");
  O.CpuLimitSeconds = 1;
  O.StallTimeoutMs = 30000;
  O.MaxRetries = 0;
  std::string Err;
  BatchReport R = Supervisor(O).run({oneJob()}, Err);
  ASSERT_EQ(Err, "");
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Failed);
  EXPECT_EQ(R.Jobs[0].Triage, "rlimit-cpu");
}

TEST(SupervisorTest, MemRlimitClassifiedAsRlimitMem) {
  if (CTP_UNDER_TSAN || CTP_UNDER_ASAN)
    GTEST_SKIP() << "the sanitizer's shadow mapping fails under RLIMIT_AS "
                    "before the allocator signature prints (see file "
                    "header)";
  ASSERT_FALSE(crashkidPath().empty());
  ScopedEnv Mode("CTP_CRASHKID_MODE", "alloc");
  SupervisorOptions O = fastOpts("rlimitmem");
  O.MemLimitBytes = 256u << 20;
  O.StallTimeoutMs = 30000;
  O.MaxRetries = 0;
  std::string Err;
  BatchReport R = Supervisor(O).run({oneJob()}, Err);
  ASSERT_EQ(Err, "");
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Failed);
  ASSERT_EQ(R.Jobs[0].Attempts.size(), 1u);
  // The class must be the rlimit, not a generic crash: the supervisor
  // saw SIGABRT plus the allocator's stderr signature.
  EXPECT_EQ(R.Jobs[0].Triage, "rlimit-mem")
      << "stderr tail: " << R.Jobs[0].Attempts[0].StderrTail;
}

//===----------------------------------------------------------------------===//
// Retry policy: resume first, then descend the ladder.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, RetryLadderResumesThenDegrades) {
  ASSERT_FALSE(crashkidPath().empty());
  SupervisorOptions O = fastOpts("ladder");
  std::string ArgvLog = O.WorkDir + "/argv.log";
  ScopedEnv Mode("CTP_CRASHKID_MODE", "failn");
  ScopedEnv Arg("CTP_CRASHKID_ARG", "2");
  ScopedEnv Log("CTP_CRASHKID_ARGVLOG", ArgvLog);
  O.MaxRetries = 3;
  O.CheckpointEvery = 100;
  std::string Err;
  BatchReport R = Supervisor(O).run({oneJob()}, Err);
  ASSERT_EQ(Err, "");
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Completed);
  ASSERT_EQ(R.Jobs[0].Attempts.size(), 3u);
  EXPECT_EQ(R.Jobs[0].Attempts[0].Class, AttemptClass::ExitError);
  EXPECT_EQ(R.Jobs[0].Attempts[1].Class, AttemptClass::ExitError);
  EXPECT_EQ(R.Jobs[0].Attempts[2].Class, AttemptClass::ExitOk);
  EXPECT_FALSE(R.Jobs[0].Attempts[0].Resumed);
  EXPECT_TRUE(R.Jobs[0].Attempts[1].Resumed);
  EXPECT_TRUE(R.Jobs[0].Attempts[2].Fallback);

  // The child-visible command lines must escalate exactly as documented.
  std::vector<std::string> Lines = slurpLines(ArgvLog);
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_NE(Lines[0].find("--checkpoint-dir"), std::string::npos);
  EXPECT_EQ(Lines[0].find("--resume"), std::string::npos);
  EXPECT_EQ(Lines[0].find("--fallback"), std::string::npos);
  EXPECT_NE(Lines[1].find("--checkpoint-dir"), std::string::npos);
  EXPECT_NE(Lines[1].find("--resume"), std::string::npos);
  // Ladder descent trades the checkpoint for an answer: --fallback plus
  // --checkpoint-dir would never descend (solveWithFallback prefers
  // snapshotting rung 0 over degrading).
  EXPECT_NE(Lines[2].find("--fallback"), std::string::npos);
  EXPECT_EQ(Lines[2].find("--checkpoint-dir"), std::string::npos);
  EXPECT_EQ(Lines[2].find("--resume"), std::string::npos);
}

TEST(SupervisorTest, RetriesExhaustedIsFailedWithDecisiveTriage) {
  ASSERT_FALSE(crashkidPath().empty());
  ScopedEnv Mode("CTP_CRASHKID_MODE", "signal");
  ScopedEnv Arg("CTP_CRASHKID_ARG", "6"); // SIGABRT, no bad_alloc text.
  SupervisorOptions O = fastOpts("exhaust");
  O.MaxRetries = 1;
  std::string Err;
  BatchReport R = Supervisor(O).run({oneJob()}, Err);
  ASSERT_EQ(Err, "");
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Failed);
  EXPECT_EQ(R.Jobs[0].Triage, "crash-signal");
  EXPECT_EQ(R.Jobs[0].Attempts.size(), 2u); // initial + 1 retry
}

TEST(SupervisorTest, DegradedExitBecomesCompletedDegraded) {
  ASSERT_FALSE(crashkidPath().empty());
  ScopedEnv Mode("CTP_CRASHKID_MODE", "exit");
  ScopedEnv Arg("CTP_CRASHKID_ARG", "3");
  SupervisorOptions O = fastOpts("degraded");
  O.MaxRetries = 1;
  std::string Err;
  BatchReport R = Supervisor(O).run({oneJob()}, Err);
  ASSERT_EQ(Err, "");
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::CompletedDegraded);
  EXPECT_EQ(R.Jobs[0].Triage, "exit-degraded");
  EXPECT_EQ(R.NumDegraded, 1u);
}

//===----------------------------------------------------------------------===//
// Journal: durability, replay, idempotence.
//===----------------------------------------------------------------------===//

TEST(JournalTest, ReplaySkipsFinishedJobsAndRowsAreByteIdentical) {
  ASSERT_FALSE(crashkidPath().empty());
  ScopedEnv Mode("CTP_CRASHKID_MODE", "beat");
  ScopedEnv Arg("CTP_CRASHKID_ARG", "20");
  SupervisorOptions O = fastOpts("replay");
  std::vector<JobSpec> Batch = {{"a", "cfg", "native"},
                                {"b", "cfg", "native"}};
  std::string Err;
  BatchReport First = Supervisor(O).run(Batch, Err);
  ASSERT_EQ(Err, "");
  ASSERT_EQ(First.Jobs.size(), 2u);
  EXPECT_FALSE(First.Jobs[0].FromJournal);

  // A second supervisor life over the same work tree replays everything.
  BatchReport Second = Supervisor(O).run(Batch, Err);
  ASSERT_EQ(Err, "");
  EXPECT_TRUE(Second.Jobs[0].FromJournal);
  EXPECT_TRUE(Second.Jobs[1].FromJournal);
  EXPECT_EQ(First.renderTable(), Second.renderTable());
  EXPECT_EQ(First.renderJson(), Second.renderJson());

  // A third life extends the matrix: finished rows keep their bytes.
  std::vector<JobSpec> Bigger = Batch;
  Bigger.push_back({"c", "cfg", "native"});
  BatchReport Third = Supervisor(O).run(Bigger, Err);
  ASSERT_EQ(Err, "");
  // Row-level comparison: the first two lines after the header match.
  auto Rows = [](const std::string &Table) {
    std::vector<std::string> Out;
    std::istringstream In(Table);
    std::string L;
    while (std::getline(In, L))
      Out.push_back(L);
    return Out;
  };
  std::vector<std::string> R1 = Rows(First.renderTable());
  std::vector<std::string> R3 = Rows(Third.renderTable());
  ASSERT_GE(R1.size(), 3u);
  ASSERT_GE(R3.size(), 4u);
  EXPECT_EQ(R1[1], R3[1]);
  EXPECT_EQ(R1[2], R3[2]);
}

TEST(JournalTest, TornTailLinesAreCountedNotFatal) {
  std::string Dir = freshDir("torn");
  std::string Path = journalPath(Dir);
  ASSERT_EQ(durable::appendLine(
                Path, "{\"type\":\"attempt\",\"job\":\"a/b/c\","
                      "\"attempt\":0,\"class\":\"exit-ok\",\"exit\":0,"
                      "\"signal\":0,\"resumed\":false,\"fallback\":false,"
                      "\"elapsed_ms\":5,\"stderr\":\"\"}"),
            "");
  ASSERT_EQ(durable::appendLine(
                Path, "{\"type\":\"outcome\",\"job\":\"a/b/c\","
                      "\"status\":\"completed\",\"attempts\":1,"
                      "\"triage\":\"exit-ok\",\"total_ms\":5}"),
            "");
  // The torn tail of a supervisor killed mid-append.
  std::ofstream(Path, std::ios::app)
      << "{\"type\":\"outcome\",\"job\":\"d/e/f\",\"stat";
  std::map<std::string, JobOutcome> Finished;
  std::size_t Torn = 0;
  ASSERT_TRUE(replayJournal(Path, Finished, &Torn));
  EXPECT_EQ(Torn, 1u);
  ASSERT_EQ(Finished.size(), 1u);
  const JobOutcome &O = Finished.at("a/b/c");
  EXPECT_EQ(O.Status, JobStatus::Completed);
  EXPECT_EQ(O.Spec.Preset, "a");
  EXPECT_EQ(O.Spec.Config, "b");
  EXPECT_EQ(O.Spec.Backend, "c");
  EXPECT_TRUE(O.FromJournal);
  ASSERT_EQ(O.Attempts.size(), 1u);
  EXPECT_EQ(O.Attempts[0].Class, AttemptClass::ExitOk);
}

TEST(JournalTest, StderrTailRoundTripsThroughEscaping) {
  // The emitter is not exported, so write the exact line shapes the
  // supervisor produces and check the replay side unescapes them.
  std::string Dir = freshDir("escape");
  std::string Path = journalPath(Dir);
  ASSERT_EQ(
      durable::appendLine(
          Path,
          "{\"type\":\"attempt\",\"job\":\"p/c\\twith\\ttabs/native\","
          "\"attempt\":0,\"class\":\"crash-signal\",\"exit\":-1,"
          "\"signal\":11,\"resumed\":false,\"fallback\":false,"
          "\"elapsed_ms\":1,"
          "\"stderr\":\"line1\\nline2\\t\\\"quoted\\\"\\\\back\\u0001\"}"),
      "");
  ASSERT_EQ(durable::appendLine(
                Path, "{\"type\":\"outcome\",\"job\":"
                      "\"p/c\\twith\\ttabs/native\",\"status\":\"failed\","
                      "\"attempts\":1,\"triage\":\"crash-signal\","
                      "\"total_ms\":1}"),
            "");
  std::map<std::string, JobOutcome> Finished;
  ASSERT_TRUE(replayJournal(Path, Finished, nullptr));
  ASSERT_EQ(Finished.size(), 1u);
  const JobOutcome &Got = Finished.begin()->second;
  EXPECT_EQ(Got.Spec.Config, "c\twith\ttabs");
  ASSERT_EQ(Got.Attempts.size(), 1u);
  EXPECT_EQ(Got.Attempts[0].StderrTail,
            "line1\nline2\t\"quoted\"\\back\x01");
}

//===----------------------------------------------------------------------===//
// Chaos: seeded kills stay bounded; the journal stays consistent.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, ChaosKillsAreBoundedAndRecoverable) {
  ASSERT_FALSE(crashkidPath().empty());
  ScopedEnv Mode("CTP_CRASHKID_MODE", "beat");
  ScopedEnv Arg("CTP_CRASHKID_ARG", "300");
  SupervisorOptions O = fastOpts("chaos");
  O.Chaos = true;
  O.Seed = 42;
  O.ChaosKills = 2;
  O.ChaosMinMs = 20;
  O.ChaosMaxMs = 120;
  O.StallTimeoutMs = 10000;
  std::string Err;
  std::vector<JobSpec> Batch = {{"a", "cfg", "native"},
                                {"b", "cfg", "native"}};
  BatchReport R = Supervisor(O).run(Batch, Err);
  ASSERT_EQ(Err, "");
  std::size_t ChaosSeen = 0;
  for (const JobOutcome &J : R.Jobs) {
    EXPECT_EQ(J.Status, JobStatus::Completed);
    for (const AttemptRecord &A : J.Attempts)
      ChaosSeen += A.Class == AttemptClass::ChaosKill;
  }
  EXPECT_LE(ChaosSeen, 2u);
  // The journal agrees with the in-memory report.
  std::map<std::string, JobOutcome> Finished;
  ASSERT_TRUE(replayJournal(journalPath(O.WorkDir), Finished, nullptr));
  ASSERT_EQ(Finished.size(), 2u);
  for (const JobOutcome &J : R.Jobs)
    EXPECT_EQ(Finished.at(J.Spec.id()).Status, J.Status);
}

//===----------------------------------------------------------------------===//
// Matrix expansion and plan files.
//===----------------------------------------------------------------------===//

TEST(PlanTest, ExpandMatrixIsPresetsMajor) {
  std::vector<JobSpec> Jobs =
      expandMatrix({"p1", "p2"}, {"c1", "c2"}, {"native"});
  ASSERT_EQ(Jobs.size(), 4u);
  EXPECT_EQ(Jobs[0].id(), "p1/c1/native");
  EXPECT_EQ(Jobs[1].id(), "p1/c2/native");
  EXPECT_EQ(Jobs[2].id(), "p2/c1/native");
  EXPECT_EQ(Jobs[3].id(), "p2/c2/native");
}

TEST(PlanTest, LoadPlanParsesAndDiagnoses) {
  std::string Dir = freshDir("plan");
  std::string Path = Dir + "/plan.tsv";
  {
    std::ofstream Out(Path);
    Out << "# a comment line\n"
        << "antlr\t2-object+H\n"
        << "pmd\tinsensitive\tdatalog\n";
  }
  std::vector<JobSpec> Jobs;
  ASSERT_EQ(loadPlan(Path, Jobs), "");
  ASSERT_EQ(Jobs.size(), 2u);
  EXPECT_EQ(Jobs[0].id(), "antlr/2-object+H/native");
  EXPECT_EQ(Jobs[1].id(), "pmd/insensitive/datalog");

  {
    std::ofstream Out(Path);
    Out << "antlr\t2-object+H\tsouffle\n";
  }
  Jobs.clear();
  std::string Err = loadPlan(Path, Jobs);
  EXPECT_NE(Err.find(":1:"), std::string::npos) << Err;
  EXPECT_NE(Err.find("souffle"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Heartbeat plumbing and durable appends (satellite units).
//===----------------------------------------------------------------------===//

TEST(HeartbeatTest, BudgetPollsBeatTheFile) {
  std::string Dir = freshDir("heartbeat");
  std::string Path = Dir + "/beat";
  heartbeat::install(Path, /*MinIntervalMs=*/0);
  ASSERT_TRUE(heartbeat::installed());
  std::uint64_t Before = heartbeat::beats();
  BudgetMeter Meter{BudgetSpec()}; // Unlimited: poll still beats.
  // The rate limiter needs wall time to elapse between beats, so poll
  // across real milliseconds rather than in one tight burst.
  for (int Round = 0; Round < 200 && heartbeat::beats() == Before;
       ++Round) {
    for (int I = 0; I < 256; ++I)
      (void)Meter.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(heartbeat::beats(), Before);
  std::string Content = slurpLines(Path).at(0);
  EXPECT_FALSE(Content.empty());
  heartbeat::disable();
  std::uint64_t Frozen = heartbeat::beats();
  for (int I = 0; I < 1000; ++I)
    (void)Meter.poll();
  EXPECT_EQ(heartbeat::beats(), Frozen);
}

TEST(HeartbeatTest, InstallFromEnvHonoursVariables) {
  std::string Dir = freshDir("heartbeat_env");
  heartbeat::disable();
  EXPECT_FALSE(heartbeat::installFromEnv()); // No env: stays inert.
  ScopedEnv File("CTP_HEARTBEAT_FILE", Dir + "/b");
  ScopedEnv Interval("CTP_HEARTBEAT_INTERVAL_MS", "0");
  EXPECT_TRUE(heartbeat::installFromEnv());
  EXPECT_TRUE(heartbeat::installed());
  // install() writes one beat immediately.
  EXPECT_FALSE(slurpLines(Dir + "/b").empty());
  heartbeat::disable();
}

TEST(HeartbeatTest, TickBeatsWithoutThePollStride) {
  // onPoll amortizes its clock read over 64 calls — fine at rule-firing
  // rates, far too sparse for a service loop that wakes ~20x per
  // second. tick() must beat on elapsed time alone.
  std::string Dir = freshDir("heartbeat_tick");
  std::string Path = Dir + "/beat";
  heartbeat::install(Path, /*MinIntervalMs=*/1);
  std::uint64_t Before = heartbeat::beats();
  for (int Round = 0; Round < 200 && heartbeat::beats() == Before;
       ++Round) {
    heartbeat::tick(); // ONE call per wakeup, unlike the 64-stride.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(heartbeat::beats(), Before);
  heartbeat::disable();
  std::uint64_t Frozen = heartbeat::beats();
  heartbeat::tick();
  EXPECT_EQ(heartbeat::beats(), Frozen); // Inert when uninstalled.
}

TEST(HeartbeatTest, ConcurrentWritersNeverTearTheFile) {
  // The CAS elects one writer per interval, but winners of *adjacent*
  // intervals can overlap in writeBeatFile; the write mutex must keep
  // the truncate-and-rewrite atomic. Run writer threads flat out at the
  // smallest interval while a reader continuously validates the file:
  // every observation must be either empty (mid-truncate is legal — the
  // watcher only compares successive contents) or exactly one decimal
  // counter line. Run under TSAN (check.sh --tsan) this also proves the
  // heartbeat path data-race-free.
  std::string Dir = freshDir("heartbeat_torn");
  std::string Path = Dir + "/beat";
  heartbeat::install(Path, /*MinIntervalMs=*/1);

  std::atomic<bool> StopFlag{false};
  std::atomic<int> Violations{0};
  std::vector<std::thread> Writers;
  for (int T = 0; T < 4; ++T)
    Writers.emplace_back([&StopFlag] {
      while (!StopFlag.load(std::memory_order_relaxed)) {
        heartbeat::tick();
        for (int I = 0; I < 64; ++I)
          heartbeat::onPoll();
      }
    });
  std::thread Reader([&] {
    while (!StopFlag.load(std::memory_order_relaxed)) {
      std::ifstream In(Path, std::ios::binary);
      if (!In.is_open())
        continue;
      std::string S((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
      if (S.empty())
        continue; // Between truncate and write: allowed.
      bool Ok = S.back() == '\n' &&
                S.find('\n') == S.size() - 1 && S.size() >= 2;
      for (std::size_t I = 0; Ok && I + 1 < S.size(); ++I)
        Ok = S[I] >= '0' && S[I] <= '9';
      if (!Ok)
        Violations.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  StopFlag.store(true, std::memory_order_relaxed);
  for (std::thread &W : Writers)
    W.join();
  Reader.join();
  heartbeat::disable();
  EXPECT_EQ(Violations.load(), 0)
      << "torn heartbeat file observed under concurrent writers";
  EXPECT_GT(heartbeat::beats(), 0u);
}

TEST(DurabilityTest, AppendLineCreatesAndAppends) {
  std::string Dir = freshDir("durable");
  std::string Path = Dir + "/log.jsonl";
  EXPECT_EQ(durable::appendLine(Path, "one"), "");
  EXPECT_EQ(durable::appendLine(Path, "two"), "");
  std::vector<std::string> Lines = slurpLines(Path);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], "one");
  EXPECT_EQ(Lines[1], "two");
  EXPECT_NE(durable::appendLine(Dir + "/no/such/dir/x", "y"), "");
}

TEST(DurabilityTest, WriteFileSyncedAndDirSync) {
  std::string Dir = freshDir("synced");
  std::string Path = Dir + "/data.bin";
  const char Bytes[] = "payload";
  EXPECT_EQ(durable::writeFileSynced(Path, Bytes, 7), "");
  std::ifstream In(Path, std::ios::binary);
  std::string Got((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(Got, "payload");
  EXPECT_EQ(durable::syncDirOf(Path), "");
  EXPECT_NE(durable::syncDirOf("/no/such/dir/file"), "");
}

//===----------------------------------------------------------------------===//
// End to end against the real ctp-analyze.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, RealAnalyzeCompletesAndDegradesHonestly) {
  const char *Analyze = std::getenv("CTP_ANALYZE");
  ASSERT_NE(Analyze, nullptr) << "CTP_ANALYZE not set";
  SupervisorOptions O = fastOpts("real");
  O.AnalyzePath = Analyze;
  O.CheckpointEvery = 500;
  std::string Err;
  BatchReport R =
      Supervisor(O).run({{"antlr", "insensitive", "native"}}, Err);
  ASSERT_EQ(Err, "");
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_EQ(R.Jobs[0].Status, JobStatus::Completed)
      << "triage: " << R.Jobs[0].Triage << " stderr: "
      << (R.Jobs[0].Attempts.empty()
              ? std::string("<none>")
              : R.Jobs[0].Attempts.back().StderrTail);

  // A starved budget without retries left ends completed-degraded via
  // the exit-3 protocol (first attempt saves a snapshot and exits 3;
  // the escalation ladder then answers from a lower rung or keeps
  // exiting 3 until retries run out — either way an answer, not a fail).
  SupervisorOptions O2 = fastOpts("real_degraded");
  O2.AnalyzePath = Analyze;
  O2.MaxDerivations = 10;
  O2.MaxRetries = 1;
  BatchReport R2 =
      Supervisor(O2).run({{"antlr", "2-object+H", "native"}}, Err);
  ASSERT_EQ(Err, "");
  ASSERT_EQ(R2.Jobs.size(), 1u);
  EXPECT_EQ(R2.Jobs[0].Status, JobStatus::CompletedDegraded)
      << "triage: " << R2.Jobs[0].Triage;
}

} // namespace
