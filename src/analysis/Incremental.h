//===- analysis/Incremental.h - Incremental re-solve on fact deltas -------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-solving a converged fixpoint after an edit of the input facts. The
/// rules are monotone in their input predicates (Figure 3), so adding
/// input rows is the one edit a fixpoint can simply continue from:
///
///   - *Narrow additions* (rows a rule joins on, as opposed to the
///     heap_type/implements/subtype/this_var side conditions) keep every
///     previously derived tuple and its provenance node. The previous
///     relations are replayed checkpoint-style and semi-naive propagation
///     continues from just the tuples the new rows can join against.
///   - *Every other delta* (any removal, or an addition of a side
///     condition, which can enable rule instances anywhere) re-solves the
///     edited facts cold, with provenance on so the delta after it can be
///     incremental again.
///
/// The cold re-solve is also taken when the previous run cannot be
/// continued (not converged, no complete provenance graph, a different
/// configuration, a contextless mode). Both paths reach the fixpoint of
/// the edited facts; IncrementalOutcome records which one ran and why.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_INCREMENTAL_H
#define CTP_ANALYSIS_INCREMENTAL_H

#include "analysis/Checkpoint.h"
#include "analysis/Results.h"
#include "analysis/Solver.h"
#include "ctx/Config.h"
#include "facts/FactDB.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ctp {
namespace analysis {

/// The solver-visible summary of one fact edit. The edited FactDB is the
/// authority; this struct only tells the incremental solver which rows to
/// seed from, or that it must re-solve cold. Entities are append-only — a
/// delta may introduce new variables/heaps/methods/... but never retract
/// one, so every id of the previous run stays valid in the edited
/// database. Entry additions and taint/spawn/sanitizer edits need no
/// entry here: the solver seeds every entry method itself, and the client
/// annotations are invisible to it.
struct InputDelta {
  // Narrow additions: rows already present in the edited FactDB whose
  // consequences can be seeded from one driving join side.
  std::vector<facts::AssignFact> AddAssigns;
  std::vector<facts::CastFact> AddCasts;
  std::vector<facts::LoadFact> AddLoads;
  std::vector<facts::StoreFact> AddStores;
  std::vector<facts::ActualFact> AddActuals;
  std::vector<facts::FormalFact> AddFormals;
  std::vector<facts::ReturnFact> AddReturns;
  std::vector<facts::AssignReturnFact> AddAssignReturns;
  std::vector<facts::ThrowFact> AddThrows;
  std::vector<facts::CatchFact> AddCatches;
  std::vector<facts::VirtualInvokeFact> AddVirtualInvokes;
  std::vector<facts::StaticInvokeFact> AddStaticInvokes;
  std::vector<facts::AssignNewFact> AddAssignNews;
  std::vector<facts::GlobalStoreFact> AddGlobalStores;
  std::vector<facts::GlobalLoadFact> AddGlobalLoads;
  /// The delta removes a solver-visible row or adds a heap_type /
  /// implements / subtype / this_var row: the fixpoint cannot be
  /// continued, only re-solved.
  bool NeedsColdSolve = false;
};

struct IncrementalOptions {
  /// Budget/collapse/provenance options of the re-solve. Provenance is
  /// forced on (the next delta needs the new graph); Resume and
  /// Checkpoint are ignored — promotion of a post-delta snapshot is the
  /// caller's (transactional) responsibility, never the solver's.
  SolverOptions Solver;
};

struct IncrementalOutcome {
  Results R;
  /// True when the incremental path ran; false when the outcome is a
  /// cold re-solve (FallbackReason says why). Both yield the fixpoint of
  /// the edited facts.
  bool Incremental = false;
  std::string FallbackReason;
  /// Previous tuples the re-solve did not reuse: 0 when incremental,
  /// all of them when cold.
  std::size_t Invalidated = 0;
};

/// Re-solves after an edit: \p NewDB is the edited database, \p Prev the
/// converged previous result over the pre-edit database (same \p Cfg),
/// \p D the edit summary. Never fails: a delta that needs a cold solve,
/// and every precondition miss (previous run not converged, provenance
/// missing/truncated, configuration mismatch), re-solves \p NewDB cold
/// with the reason recorded.
IncrementalOutcome resolveIncremental(const facts::FactDB &NewDB,
                                      const ctx::Config &Cfg,
                                      const Results &Prev,
                                      const InputDelta &D,
                                      const IncrementalOptions &Opts =
                                          IncrementalOptions());

/// Re-encodes a *converged, non-collapsed* native \p R as a warm-start
/// snapshot over \p DB (all relation heads at size, fingerprints of
/// \p DB): the transactional commit path promotes this atomically after
/// certification instead of letting the re-solve clobber the previous
/// epoch's snapshot mid-transaction.
SolverSnapshot snapshotFromResults(const Results &R, const facts::FactDB &DB);

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_INCREMENTAL_H
