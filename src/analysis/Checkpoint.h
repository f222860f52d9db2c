//===- analysis/Checkpoint.h - Solver checkpoint content --------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What goes into a solver checkpoint and how it maps onto the sectioned
/// container of support/Snapshot.h. Both evaluation back-ends snapshot
/// the same logical state:
///
///   - the interned transformation domain and reach-context interner,
///     flattened in id order (dense first-seen interning makes a replayed
///     import reproduce the exact id assignment);
///   - every derived relation in insertion order, plus a per-relation
///     "head" marking how many tuples were already processed — the native
///     solver keeps each relation as exactly these rows and head (its
///     worklist is the unprocessed suffix, by construction), and at a
///     semi-naive round boundary the datalog engine's delta is likewise a
///     suffix of each relation's rows, so (rows, head) is a complete
///     work-state encoding;
///   - progress counters, so a resumed run reports cumulative totals
///     identical to an uninterrupted one.
///
/// Restoring replays the facts in insertion order without firing any
/// rule: dedup sets, join indices, and (in collapse mode) the live-fact
/// table are rebuilt as deterministic side effects of the replay, and the
/// restored heads resume the worklists, which is what makes
/// checkpoint+resume byte-identical to an uninterrupted run.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_CHECKPOINT_H
#define CTP_ANALYSIS_CHECKPOINT_H

#include "analysis/Facts.h"
#include "ctx/Config.h"
#include "ctx/Ctxt.h"
#include "support/Budget.h"
#include "support/Interner.h"
#include "support/Stats.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace ctp {
namespace analysis {

/// When and where to write checkpoints.
struct CheckpointPolicy {
  /// Directory holding the snapshot file; empty disables checkpointing.
  std::string Dir;
  /// Derivations between periodic snapshot writes. The native solver
  /// checkpoints at worklist-item granularity: 0 means "only when the
  /// budget trips" (a trip-time snapshot is always written). The datalog
  /// engine can only checkpoint at semi-naive round boundaries: 0 means
  /// "every boundary", N means "the first boundary at least N
  /// derivations after the previous write".
  std::uint64_t EveryDerivations = 0;
  /// Batch runs delete their checkpoint on convergence (a spent
  /// checkpoint must not feed a later --resume); a resident service
  /// instead sets this to keep a *converged* snapshot on disk as its
  /// warm-start image — restoring it replays every relation with
  /// Head == size, so the restored solver converges immediately.
  bool KeepOnConverge = false;

  bool enabled() const { return !Dir.empty(); }
};

/// One derived relation, flattened: Arity u32 words per tuple in
/// insertion order; tuples before Head are already processed (popped from
/// the worklist / drained out of the delta).
struct RelationWords {
  std::vector<std::uint32_t> Words;
  std::uint64_t Head = 0;
};

/// The full checkpointed state of one solver run.
struct SolverSnapshot {
  enum class Backend : std::uint32_t { Native = 1, Datalog = 2 };

  Backend BackendTag = Backend::Native;
  bool Collapse = false;
  ctx::Config Config;
  /// Order-independent content hash of the FactDB (FactDB::fingerprint):
  /// "is this snapshot about the same facts at all?".
  std::uint64_t Fingerprint = 0;
  /// Order-dependent layout hash (FactDB::layoutHash): "would the solver
  /// replay the identical derivation sequence?" — required because id
  /// assignment and fact order determine rule-firing order.
  std::uint64_t LayoutHash = 0;

  /// ctx::Domain::exportInterned stream.
  std::vector<std::uint32_t> DomainWords;
  /// Reach-context interner contents, id order: per vector its length
  /// then its elements.
  std::vector<std::uint32_t> ReachCtxtWords;

  /// pts/3, hpts/4, hload/4, call/3, reach/2, gpts/3.
  RelationWords Pts, Hpts, Hload, Call, Reach, Gpts;

  /// Collapse mode only: pts facts that entered the dedup set but were
  /// subsumed at insert (they never reached the relation vector); 3
  /// words per fact. Without these a replayed restore would under-
  /// populate the dedup set and diverge on CollapsedPts.
  std::vector<std::uint32_t> SubsumedWords;

  // Cumulative progress counters of the writing run.
  std::uint64_t WorkItems = 0;
  std::uint64_t Derivations = 0;
  std::uint64_t Tuples = 0;
  std::uint64_t CollapsedPts = 0;
  std::uint64_t Rounds = 0;        ///< Datalog semi-naive rounds.
  std::uint64_t DerivedTuples = 0; ///< Datalog inserted-tuple count.

  /// Trailer: why the writing run stopped (Converged while still
  /// running, the trip reason on a budget-exhausted write) and how far
  /// it had got.
  TerminationReason Term = TerminationReason::Converged;
  EngineProgress Progress;
};

/// The snapshot file inside a checkpoint directory.
std::string checkpointPath(const std::string &Dir);

/// Encodes \p S and atomically writes it to \p Path (see
/// snapshot::writeFile). \returns an empty string on success.
std::string writeSnapshot(const SolverSnapshot &S, const std::string &Path);

/// Reads, checksum-validates, and decodes the snapshot at \p Path.
/// \returns an empty string on success, else a diagnostic.
std::string readSnapshot(const std::string &Path, SolverSnapshot &S);

/// Deletes the snapshot file in \p Dir, if any. A converged run removes
/// its checkpoint so a later --resume cannot pick up stale state.
void removeSnapshot(const std::string &Dir);

/// The u32 words per tuple of the fact struct \p Fact. Every fact struct
/// is a plain run of u32 columns in the order the snapshot stores them,
/// so a relation's rows are its section's words.
template <typename Fact> constexpr std::size_t arityOf() {
  static_assert(std::is_trivially_copyable_v<Fact> &&
                    alignof(Fact) == alignof(std::uint32_t) &&
                    sizeof(Fact) % sizeof(std::uint32_t) == 0,
                "fact structs must be plain runs of u32 columns");
  return sizeof(Fact) / sizeof(std::uint32_t);
}

/// Flattens \p Rows, in insertion order, into \p Out, the first \p Head
/// of them already processed.
template <typename Fact>
void encodeRelation(const std::vector<Fact> &Rows, std::uint64_t Head,
                    RelationWords &Out) {
  Out.Head = Head;
  Out.Words.resize(Rows.size() * arityOf<Fact>());
  if (!Rows.empty())
    std::memcpy(Out.Words.data(), Rows.data(), Rows.size() * sizeof(Fact));
}

/// Tuple \p Row of \p W (Row < W.Words.size() / arityOf<Fact>()).
template <typename Fact>
Fact decodeRow(const RelationWords &W, std::size_t Row) {
  Fact F;
  std::memcpy(&F, W.Words.data() + Row * arityOf<Fact>(), sizeof(Fact));
  return F;
}

/// Flattens \p I in id order into \p Out (length-prefixed vectors).
void encodeCtxtInterner(const Interner<ctx::CtxtVec, ctx::CtxtVecHash> &I,
                        std::vector<std::uint32_t> &Out);

/// Replays \p Words into \p I, verifying that each vector lands on the
/// id equal to its position (pre-interned entries — the datalog
/// front-end seeds the entry context before restoring — must therefore
/// lead the stream, which they do by construction). \returns false on a
/// malformed stream or id divergence.
bool decodeCtxtInterner(const std::vector<std::uint32_t> &Words,
                        Interner<ctx::CtxtVec, ctx::CtxtVecHash> &I);

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_CHECKPOINT_H
