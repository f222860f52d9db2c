//===- tools/ctp-analyze.cpp - Command-line analysis driver ---------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Runs one analysis configuration over a facts directory (or a built-in
// synthetic preset) and reports relation sizes, timing, and optionally the
// context-insensitive points-to sets.
//
// Usage:
//   ctp-analyze [options]
//     --facts DIR          read Doop-style .facts files from DIR
//     --preset NAME        use a built-in workload (antlr, bloat, chart,
//                          eclipse, luindex, pmd, xalan)
//     --config NAME        1-call | 1-call+H | 1-object | 2-object+H |
//                          2-type+H | 2-hybrid+H | cutshortcut |
//                          insensitive | unify (default 2-object+H)
//     --abstraction A      cs (context strings) | ts (transformer strings;
//                          default)
//     --collapse           enable subsumption collapsing (ts only)
//     --datalog            evaluate through the generic Datalog engine
//     --deadline-ms N      wall-clock budget for the solve (0 = unlimited)
//     --max-derivations N  rule-firing cap (0 = unlimited)
//     --max-tuples N       derived-tuple (approx. memory) cap
//     --mem-budget-mb N    RSS budget enforced by the in-process memory
//                          governor: watermark pressure checkpoints and
//                          (with --fallback) descends the ladder instead
//                          of dying on bad_alloc
//     --fallback           on budget exhaustion degrade down the
//                          configuration ladder instead of stopping
//     --lenient            skip (and count) malformed fact lines instead
//                          of aborting the read
//     --dump-pts           print the CI points-to set of every variable
//     --dump-calls         print the CI call graph
//     --out DIR            write all derived relations as TSV into DIR
//     --checkpoint-dir DIR crash-safe checkpointing: budget-exhausted runs
//                          leave a resumable snapshot in DIR
//     --checkpoint-every N also snapshot periodically, every ~N derivations
//     --resume             continue from DIR's snapshot if it validates
//                          (corruption/mismatch warns and cold-starts)
//
// Exit codes (support/ExitCodes.h): 0 converged at the requested
// configuration, 1 runtime error, 2 usage error, 3 completed degraded
// (budget-truncated results or a fallback rung below the requested
// configuration answered; with --checkpoint-dir a snapshot was saved).
//
//===----------------------------------------------------------------------===//

#include "analysis/Configurations.h"
#include "analysis/DatalogFrontend.h"
#include "analysis/ResultsIO.h"
#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "facts/TsvIO.h"
#include "support/Budget.h"
#include "support/ExitCodes.h"
#include "support/FaultInjection.h"
#include "support/Memory.h"
#include "support/Suggest.h"
#include "support/Supervisor.h"
#include "workload/Presets.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

using namespace ctp;

namespace {

int usage(const char *Prog) {
  std::string Presets;
  for (const std::string &N : workload::presetNames()) {
    if (!Presets.empty())
      Presets += ", ";
    Presets += N;
  }
  std::fprintf(
      stderr,
      "usage: %s [--facts DIR | --preset NAME] [--config NAME] "
      "[--abstraction cs|ts]\n"
      "          [--collapse] [--datalog] [--deadline-ms N] "
      "[--max-derivations N]\n"
      "          [--max-tuples N] [--mem-budget-mb N] [--fallback] "
      "[--lenient]\n"
      "          [--dump-pts] [--dump-calls]\n"
      "          [--out DIR] [--checkpoint-dir DIR] [--checkpoint-every N] "
      "[--resume]\n"
      "  presets: %s\n"
      "  configs: 1-call, 1-call+H, 1-object, 2-object+H, 2-type+H,\n"
      "           2-hybrid+H, cutshortcut, insensitive, unify\n"
      "  exit codes: 0 converged, 1 error, 2 usage, 3 completed "
      "degraded\n",
      Prog, Presets.c_str());
  return ExitUsage;
}

//===----------------------------------------------------------------------===//
// Termination-reason sidecar.
//
// A supervised child that dies of allocation failure used to be triaged
// by grepping "bad_alloc" off a truncatable stderr tail. Instead the
// child itself records how it ended, structured, next to its heartbeat
// file: one line at normal exit, and — via a terminate handler — a
// best-effort "reason=bad_alloc" even on the SIGABRT path, so the
// supervisor's rlimit-mem triage no longer depends on what the C++
// runtime happened to print.
//===----------------------------------------------------------------------===//

std::string TermSidecarPath; // Empty when unsupervised.

void writeTermSidecar(const std::string &Line) {
  if (TermSidecarPath.empty())
    return;
  if (std::FILE *F = std::fopen(TermSidecarPath.c_str(), "w")) {
    std::fprintf(F, "%s\n", Line.c_str());
    std::fclose(F);
  }
}

std::terminate_handler PrevTerminate = nullptr;

[[noreturn]] void terminateWithSidecar() {
  // Name the in-flight exception without allocating; under genuine
  // exhaustion even fopen may fail, and that's fine — the stderr grep
  // remains as the supervisor's fallback.
  const char *Reason = "terminate";
  if (std::exception_ptr E = std::current_exception()) {
    try {
      std::rethrow_exception(E);
    } catch (const std::bad_alloc &) {
      Reason = "bad_alloc";
    } catch (...) {
    }
  }
  writeTermSidecar(std::string("reason=") + Reason);
  if (PrevTerminate)
    PrevTerminate();
  std::abort();
}

/// Parses a non-negative integer flag value; \returns false on garbage.
bool parseCount(const char *S, std::uint64_t &Out) {
  if (!S || !*S)
    return false;
  // strtoull silently wraps "-5"; digits only.
  if (*S < '0' || *S > '9')
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string FactsDir, Preset, OutDir, ConfigName = "2-object+H";
  ctx::Abstraction Abs = ctx::Abstraction::TransformerString;
  bool Collapse = false, UseDatalog = false, DumpPts = false,
       DumpCalls = false, Fallback = false, Lenient = false,
       Resume = false;
  BudgetSpec Budget;
  analysis::CheckpointPolicy Ckpt;

  // Liveness for a supervising ctp-batch: beat a heartbeat file from the
  // solver's budget poll points when CTP_HEARTBEAT_FILE is set. The same
  // supervision contract adds the termination-reason sidecar next to the
  // heartbeat file (see above).
  heartbeat::installFromEnv();
  if (const char *Hb = std::getenv("CTP_HEARTBEAT_FILE"))
    if (*Hb) {
      TermSidecarPath = std::string(Hb) + batch::termSidecarSuffix();
      PrevTerminate = std::set_terminate(terminateWithSidecar);
    }

  // Test hook: simulated memory-pressure spikes or a forced bad_alloc at
  // the governor's poll points ("soft@N", "hard@N", "badalloc@N",
  // optionally "xR" for a sustained window).
  if (const char *Fault = std::getenv("CTP_MEM_FAULT"))
    if (*Fault && !fault::armMemFaultByName(Fault))
      std::fprintf(stderr,
                   "warning: unknown CTP_MEM_FAULT '%s' ignored\n", Fault);

  // Test hook: arm a sticky snapshot-writer fault so the crash-resume
  // loop and the recovery tests can exercise torn/short/bit-flipped
  // writes through the real binary.
  if (const char *Fault = std::getenv("CTP_SNAPSHOT_FAULT"))
    if (*Fault && !fault::armSnapshotFaultByName(Fault, /*Sticky=*/true))
      std::fprintf(stderr,
                   "warning: unknown CTP_SNAPSHOT_FAULT '%s' ignored\n",
                   Fault);

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", Arg.c_str());
        return nullptr;
      }
      return argv[++I];
    };
    auto NextCount = [&](std::uint64_t &Out) {
      const char *V = Next();
      if (!V)
        return false;
      if (!parseCount(V, Out)) {
        std::fprintf(stderr, "error: %s expects a non-negative integer, "
                             "got '%s'\n",
                     Arg.c_str(), V);
        return false;
      }
      return true;
    };
    if (Arg == "--facts") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      FactsDir = V;
    } else if (Arg == "--preset") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      Preset = V;
    } else if (Arg == "--config") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      ConfigName = V;
    } else if (Arg == "--abstraction") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      if (std::strcmp(V, "cs") == 0)
        Abs = ctx::Abstraction::ContextString;
      else if (std::strcmp(V, "ts") == 0)
        Abs = ctx::Abstraction::TransformerString;
      else {
        std::fprintf(stderr, "error: unknown abstraction '%s'%s\n", V,
                     support::didYouMean(V, {"cs", "ts"}).c_str());
        return usage(argv[0]);
      }
    } else if (Arg == "--collapse") {
      Collapse = true;
    } else if (Arg == "--datalog") {
      UseDatalog = true;
    } else if (Arg == "--deadline-ms") {
      if (!NextCount(Budget.DeadlineMs))
        return usage(argv[0]);
    } else if (Arg == "--max-derivations") {
      if (!NextCount(Budget.MaxDerivations))
        return usage(argv[0]);
    } else if (Arg == "--max-tuples") {
      if (!NextCount(Budget.MaxTuples))
        return usage(argv[0]);
    } else if (Arg == "--mem-budget-mb") {
      if (!NextCount(Budget.MemBudgetMb))
        return usage(argv[0]);
    } else if (Arg == "--fallback") {
      Fallback = true;
    } else if (Arg == "--lenient") {
      Lenient = true;
    } else if (Arg == "--dump-pts") {
      DumpPts = true;
    } else if (Arg == "--dump-calls") {
      DumpCalls = true;
    } else if (Arg == "--out") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      OutDir = V;
    } else if (Arg == "--checkpoint-dir") {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      Ckpt.Dir = V;
    } else if (Arg == "--checkpoint-every") {
      if (!NextCount(Ckpt.EveryDerivations))
        return usage(argv[0]);
    } else if (Arg == "--resume") {
      Resume = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage(argv[0]);
    }
  }
  if (FactsDir.empty() == Preset.empty()) {
    std::fprintf(stderr, "error: exactly one of --facts / --preset is "
                         "required\n");
    return usage(argv[0]);
  }
  if ((Resume || Ckpt.EveryDerivations != 0) && !Ckpt.enabled()) {
    std::fprintf(stderr, "error: --resume / --checkpoint-every require "
                         "--checkpoint-dir\n");
    return usage(argv[0]);
  }

  facts::FactDB DB;
  if (!FactsDir.empty()) {
    facts::FactsReadOptions ReadOpts;
    ReadOpts.Lenient = Lenient;
    facts::FactsReadReport Report;
    std::string Err = facts::readFactsDir(FactsDir, DB, ReadOpts, &Report);
    if (!Err.empty()) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return ExitError;
    }
    if (Report.SkippedLines != 0) {
      std::fprintf(stderr, "warning: skipped %zu malformed fact line(s)\n",
                   Report.SkippedLines);
      for (const std::string &W : Report.Warnings)
        std::fprintf(stderr, "warning:   %s\n", W.c_str());
    }
  } else {
    bool Known = false;
    for (const std::string &N : workload::presetNames())
      Known |= N == Preset;
    if (!Known) {
      std::fprintf(
          stderr, "error: unknown preset '%s'%s\n", Preset.c_str(),
          support::didYouMean(Preset, workload::presetNames()).c_str());
      return ExitError;
    }
    DB = facts::extract(workload::generatePreset(Preset));
  }

  ctx::Config Cfg;
  if (!ctx::configByName(ConfigName, Abs, Cfg)) {
    std::fprintf(
        stderr, "error: unknown config '%s'%s\n", ConfigName.c_str(),
        support::didYouMean(ConfigName, ctx::configNames()).c_str());
    return ExitError;
  }
  std::string CfgErr = Cfg.validate();
  if (!CfgErr.empty()) {
    std::fprintf(stderr, "error: %s\n", CfgErr.c_str());
    return ExitError;
  }

  std::printf("input: %zu methods, %zu variables, %zu heap sites, %zu "
              "input facts\n",
              DB.numMethods(), DB.numVars(), DB.numHeaps(),
              DB.numInputFacts());
  std::printf("config: %s via %s%s\n", Cfg.name().c_str(),
              UseDatalog ? "generic datalog engine" : "specialized solver",
              Collapse ? ", subsumption collapsing" : "");

  analysis::Results R;
  bool Degraded = false;
  bool SnapshotSaved = false;
  if (Fallback) {
    analysis::FallbackOptions FOpts;
    FOpts.Budget = Budget;
    FOpts.UseDatalog = UseDatalog;
    FOpts.Solver.CollapseSubsumedPts = Collapse;
    FOpts.Checkpoint = Ckpt;
    FOpts.Resume = Resume;
    analysis::FallbackOutcome O = analysis::solveWithFallback(DB, Cfg, FOpts);
    if (!O.ResumeWarning.empty())
      std::fprintf(stderr, "warning: %s\n", O.ResumeWarning.c_str());
    if (Resume)
      std::printf("resume: %s\n", analysis::resumeStatusName(O.Resume));
    std::printf("fallback ladder:\n");
    for (std::size_t A = 0; A < O.Attempts.size(); ++A) {
      const analysis::RungAttempt &At = O.Attempts[A];
      std::printf("  rung %zu: %-18s %-17s %.1f ms, %zu derivations%s\n",
                  A, At.Config.name().c_str(),
                  terminationReasonName(At.Term), At.Seconds * 1e3,
                  At.Derivations, A == O.RungUsed ? "  <- answered" : "");
    }
    Degraded = O.Degraded;
    SnapshotSaved = O.SnapshotSaved;
    R = std::move(O.R);
  } else {
    // A direct run threads the checkpoint policy straight into the chosen
    // back-end; the probe pre-validates any snapshot so corruption or a
    // mismatched fact set warns and cold-starts instead of crashing.
    analysis::SnapshotProbe Probe;
    if (Resume) {
      Probe = analysis::probeSnapshot(Ckpt.Dir, DB, Cfg, UseDatalog,
                                      !UseDatalog && Collapse);
      if (!Probe.Warning.empty())
        std::fprintf(stderr, "warning: %s\n", Probe.Warning.c_str());
      std::printf("resume: %s\n", analysis::resumeStatusName(Probe.Status));
    }
    const analysis::SolverSnapshot *Snap =
        Probe.Status == analysis::ResumeStatus::Resumed ? &Probe.Snap
                                                        : nullptr;
    if (UseDatalog) {
      analysis::DatalogSolveOptions DOpts;
      DOpts.Budget = Budget;
      DOpts.Checkpoint = Ckpt;
      DOpts.Resume = Snap;
      R = analysis::solveViaDatalog(DB, Cfg, DOpts);
    } else {
      analysis::SolverOptions Opts;
      Opts.CollapseSubsumedPts = Collapse;
      Opts.Budget = Budget;
      Opts.Checkpoint = Ckpt;
      Opts.Resume = Snap;
      R = analysis::solve(DB, Cfg, Opts);
    }
    Degraded = R.Stat.Term != TerminationReason::Converged;
    if (Degraded && Ckpt.enabled())
      SnapshotSaved =
          std::ifstream(analysis::checkpointPath(Ckpt.Dir),
                        std::ios::binary)
              .is_open();
  }
  if (!R.Stat.CheckpointError.empty())
    std::fprintf(stderr, "warning: %s\n", R.Stat.CheckpointError.c_str());

  std::printf("termination: %s (%zu iterations, %zu derivations, "
              "%zu pending work items)\n",
              terminationReasonName(R.Stat.Term),
              R.Stat.Progress.Iterations, R.Stat.Progress.Derivations,
              R.Stat.Progress.PendingWork);
  if (R.Stat.Term != TerminationReason::Converged)
    std::printf("note: results are PARTIAL (a sound subset of the "
                "converged fixpoint)\n");

  std::printf("\nderived relations:\n");
  std::printf("  pts   %12zu\n", R.Stat.NumPts);
  std::printf("  hpts  %12zu\n", R.Stat.NumHpts);
  std::printf("  hload %12zu\n", R.Stat.NumHload);
  std::printf("  call  %12zu\n", R.Stat.NumCall);
  std::printf("  reach %12zu\n", R.Stat.NumReach);
  std::printf("  gpts  %12zu\n", R.Stat.NumGpts);
  std::printf("  total (pts+hpts+call) %zu\n", R.Stat.total());
  if (Collapse)
    std::printf("  collapsed pts facts  %zu\n", R.Stat.CollapsedPts);
  std::printf("time: %.1f ms, %zu distinct transformations, %llu comp "
              "calls (%llu bottom), peak rss %llu MB\n",
              R.Stat.Seconds * 1e3, R.Stat.DomainSize,
              static_cast<unsigned long long>(R.Stat.CompAttempts),
              static_cast<unsigned long long>(R.Stat.CompBottoms),
              static_cast<unsigned long long>(memgov::peakRssBytes() >>
                                              20));

  if (!OutDir.empty()) {
    std::string Err = analysis::writeResultsDir(DB, R, OutDir);
    if (!Err.empty()) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return ExitError;
    }
    std::printf("wrote derived relations to %s\n", OutDir.c_str());
  }

  if (DumpPts) {
    std::printf("\ncontext-insensitive points-to sets:\n");
    std::uint32_t Current = UINT32_MAX;
    for (const auto &P : R.ciPts()) {
      if (P[0] != Current) {
        if (Current != UINT32_MAX)
          std::printf("\n");
        std::printf("  %s ->", DB.VarNames[P[0]].c_str());
        Current = P[0];
      }
      std::printf(" %s", DB.HeapNames[P[1]].c_str());
    }
    if (Current != UINT32_MAX)
      std::printf("\n");
  }
  if (DumpCalls) {
    std::printf("\ncontext-insensitive call graph:\n");
    for (const auto &C : R.ciCall())
      std::printf("  %s -> %s\n", DB.InvokeNames[C[0]].c_str(),
                  DB.MethodNames[C[1]].c_str());
  }
  if (SnapshotSaved)
    std::printf("checkpoint saved to %s; re-run with --resume to "
                "continue\n",
                Ckpt.Dir.c_str());
  writeTermSidecar(
      std::string("reason=") + terminationReasonName(R.Stat.Term) +
      " degraded=" + (Degraded ? "1" : "0") + " peak_rss_mb=" +
      std::to_string(memgov::peakRssBytes() >> 20));
  return Degraded ? ExitDegraded : ExitOk;
}
