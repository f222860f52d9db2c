//===- bench/bench_incremental_delta.cpp - Re-solve vs cold solve ---------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// What does a transactional commit cost relative to starting over? For
// each preset, solve 2-object+H once with provenance (the resident
// service's steady state), then apply deltas — additions and removals of
// assign edges, and a wide addition of subtype rows — and compare the
// median re-solve (analysis/Incremental.h) against the median cold solve
// of the same edited facts. The cold column records provenance, as the
// service's own cold fallback does. Only narrow additions continue the
// previous fixpoint; the other rows take that cold fallback, so their
// ratio is the overhead of the re-solve entry point over a plain cold
// solve. Every pair is checked to land on the same fixpoint sizes, so the
// table can't quietly trade speed for wrong answers.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "support/Stats.h"
#include "workload/Presets.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace ctp;

namespace {

bool hasAssign(const facts::FactDB &DB, facts::Id From, facts::Id To) {
  for (const auto &F : DB.Assigns)
    if (F.From == From && F.To == To)
      return true;
  return false;
}

bool hasSubtype(const facts::FactDB &DB, facts::Id Sub, facts::Id Super) {
  for (const auto &F : DB.Subtypes)
    if (F.Sub == Sub && F.Super == Super)
      return true;
  return false;
}

/// An edited copy of \p DB with \p K assign edges added (absent pairs in
/// a deterministic scan order), summarized into \p D.
facts::FactDB withAddedEdges(const facts::FactDB &DB, std::size_t K,
                             analysis::InputDelta &D) {
  facts::FactDB Edited = DB;
  std::size_t Made = 0;
  for (facts::Id A = 0; A < Edited.numVars() && Made < K; ++A)
    for (facts::Id B = 0; B < Edited.numVars() && Made < K; ++B) {
      if (A == B || hasAssign(Edited, A, B))
        continue;
      Edited.Assigns.push_back({A, B});
      D.AddAssigns.push_back({A, B});
      ++Made;
    }
  return Edited;
}

/// An edited copy of \p DB with its first \p K assign edges removed.
facts::FactDB withRemovedEdges(const facts::FactDB &DB, std::size_t K,
                               analysis::InputDelta &D) {
  facts::FactDB Edited = DB;
  K = std::min(K, Edited.Assigns.size());
  Edited.Assigns.erase(Edited.Assigns.begin(),
                       Edited.Assigns.begin() + static_cast<long>(K));
  D.NeedsColdSolve = true;
  return Edited;
}

/// An edited copy of \p DB with \p K subtype rows added (absent pairs in
/// a deterministic scan order): a side-condition delta.
facts::FactDB withAddedSubtypes(const facts::FactDB &DB, std::size_t K,
                                analysis::InputDelta &D) {
  facts::FactDB Edited = DB;
  std::size_t Made = 0;
  for (facts::Id A = 0; A < Edited.numTypes() && Made < K; ++A)
    for (facts::Id B = 0; B < Edited.numTypes() && Made < K; ++B) {
      if (A == B || hasSubtype(Edited, A, B))
        continue;
      Edited.Subtypes.push_back({A, B});
      ++Made;
    }
  D.NeedsColdSolve = true;
  return Edited;
}

template <typename Fn> double median3(Fn &&Run) {
  double A = Run(), B = Run(), C = Run();
  double Lo = std::min(std::min(A, B), C);
  double Hi = std::max(std::max(A, B), C);
  return A + B + C - Lo - Hi;
}

void row(const char *Preset, const analysis::Results &Prev,
         const ctx::Config &Cfg, const char *Kind, std::size_t K,
         const facts::FactDB &Edited, const analysis::InputDelta &D) {
  std::size_t Invalidated = 0;
  bool TookIncremental = false;
  std::size_t ResolvePts = 0;
  double TResolve = median3([&] {
    Stopwatch W;
    analysis::IncrementalOutcome Out =
        analysis::resolveIncremental(Edited, Cfg, Prev, D);
    Invalidated = Out.Invalidated;
    TookIncremental = Out.Incremental;
    ResolvePts = Out.R.Pts.size();
    return W.seconds();
  });
  std::size_t ColdPts = 0;
  double TCold = median3([&] {
    analysis::SolverOptions SO;
    SO.Provenance.Enabled = true;
    Stopwatch W;
    analysis::Results R = analysis::solve(Edited, Cfg, SO);
    ColdPts = R.Pts.size();
    return W.seconds();
  });

  std::printf("%-10s %-7s %4zu %10.2fms %10.2fms %8.2fx %8zu  %s\n", Preset,
              Kind, K, TResolve * 1e3, TCold * 1e3,
              TResolve > 0 ? TCold / TResolve : 0.0, Invalidated,
              TookIncremental ? "incremental" : "cold");
  if (ResolvePts != ColdPts)
    std::printf("  WARNING: |pts| diverged (re-solve %zu vs cold %zu)\n",
                ResolvePts, ColdPts);
}

} // namespace

int main() {
  std::printf("Incremental delta re-solve vs cold solve with provenance "
              "(2-object+H, median of 3):\n\n");
  std::printf("%-10s %-7s %4s %12s %12s %9s %8s  %s\n", "preset", "kind",
              "ops", "re-solve", "cold", "speedup", "inval", "path");

  const ctx::Config Cfg =
      ctx::twoObjectH(ctx::Abstraction::TransformerString);
  for (const char *Preset : {"luindex", "pmd", "bloat"}) {
    facts::FactDB DB = facts::extract(workload::generatePreset(Preset));
    analysis::SolverOptions SO;
    SO.Provenance.Enabled = true;
    analysis::Results Prev = analysis::solve(DB, Cfg, SO);

    for (std::size_t K : {1u, 4u, 16u}) {
      analysis::InputDelta DAdd;
      facts::FactDB Added = withAddedEdges(DB, K, DAdd);
      row(Preset, Prev, Cfg, "add", K, Added, DAdd);
    }
    for (std::size_t K : {1u, 4u, 16u}) {
      analysis::InputDelta DRm;
      facts::FactDB Removed = withRemovedEdges(DB, K, DRm);
      row(Preset, Prev, Cfg, "rm", K, Removed, DRm);
    }
    analysis::InputDelta DWide;
    facts::FactDB Wide = withAddedSubtypes(DB, 5, DWide);
    row(Preset, Prev, Cfg, "subtype", 5, Wide, DWide);
  }
  std::printf("\n'inval' counts previous tuples the re-solve did not reuse\n"
              "(0 when it continued the previous fixpoint, all of them\n"
              "when it re-solved cold).\n");
  return 0;
}
