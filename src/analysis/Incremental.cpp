//===- analysis/Incremental.cpp - Incremental re-solve support ------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// The native incremental path lives with the solver it seeds
// (analysis/Solver.cpp). This file holds the Results -> warm-start
// snapshot re-encoder the transactional commit path promotes after
// certification.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"

#include <cassert>

using namespace ctp;
using namespace ctp::analysis;

SolverSnapshot analysis::snapshotFromResults(const Results &R,
                                             const facts::FactDB &DB) {
  assert(R.Stat.Term == TerminationReason::Converged &&
         "only a converged result can become a warm-start snapshot");
  assert(R.Stat.CollapsedPts == 0 &&
         "collapse mode re-orders Results::Pts; its snapshot must come "
         "from the solver's own KeepOnConverge path");
  assert(R.Dom && R.ReachCtxts && "result lacks its interned domain");

  SolverSnapshot S;
  S.BackendTag = SolverSnapshot::Backend::Native;
  S.Collapse = false;
  S.Config = R.Config;
  S.Fingerprint = DB.fingerprint();
  S.LayoutHash = DB.layoutHash();
  R.Dom->exportInterned(S.DomainWords);
  encodeCtxtInterner(*R.ReachCtxts, S.ReachCtxtWords);

  // Converged: every head sits at its relation's size, so a restore
  // replays all tuples as already-processed and converges immediately.
  encodeRelation(R.Pts, R.Pts.size(), S.Pts);
  encodeRelation(R.Hpts, R.Hpts.size(), S.Hpts);
  encodeRelation(R.Hload, R.Hload.size(), S.Hload);
  encodeRelation(R.Call, R.Call.size(), S.Call);
  encodeRelation(R.Reach, R.Reach.size(), S.Reach);
  encodeRelation(R.Gpts, R.Gpts.size(), S.Gpts);

  S.WorkItems = R.Stat.WorkItems;
  S.Derivations = R.Stat.Progress.Derivations;
  S.Tuples = R.numTuples();
  S.CollapsedPts = 0;
  S.Term = TerminationReason::Converged;
  S.Progress = R.Stat.Progress;
  S.Progress.PendingWork = 0;
  return S;
}
