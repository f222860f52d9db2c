//===- verify/Verify.h - Fixpoint certification & differential --*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification subsystem: a static-analysis pass over a *solved*
/// Results/FactDB pair that certifies the fixpoint and cross-validates
/// the two evaluation engines. It is deliberately engine-independent —
/// every check consumes only the declarative artifacts (relations, the
/// interned domain, the provenance graph, snapshots), never solver
/// internals — so it survives solver rewrites unchanged and gates them.
///
/// Checks:
///  - closure: naive re-application of every Figure 3 rule over the
///    completed relations, its joins filtered by context keys the checker
///    computes itself; any rule instance whose conclusion is missing
///    is a counterexample (the "no rule can still fire" half of being a
///    fixpoint). Catches dropped tuples and under-derivation.
///  - support: walks the first-derivation provenance graph (native
///    back-end only) and re-validates every recorded edge — premises
///    exist, are well-founded, ground out in input facts, and the
///    conclusion recomputes to the recorded transformation — plus the
///    converse: every relation tuple has a recorded derivation. Catches
///    extra or mutated tuples (the "everything derived is justified"
///    half).
///  - differential: canonical serialization equality between back-ends,
///    ladder monotonicity, CFL-oracle containment and demand-driven spot
///    checks, and snapshot save -> restore -> re-solve identity.
///
/// What this does and does not prove: closure + support certify that the
/// produced relations are exactly the least fixpoint of the implemented
/// rules over the given facts — not that the rules faithfully transcribe
/// the paper (that is what the independent CFL oracle and the
/// cross-engine differential approximate).
///
//===----------------------------------------------------------------------===//

#ifndef CTP_VERIFY_VERIFY_H
#define CTP_VERIFY_VERIFY_H

#include "analysis/Results.h"
#include "ctx/Config.h"
#include "facts/FactDB.h"
#include "support/Verdict.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ctp {
namespace verify {

/// Join work of one closure pass.
struct ClosureStats {
  std::uint64_t CompAttempts = 0; ///< comp calls made by the rules.
  std::uint64_t CompBottoms = 0;  ///< Of those, how many returned ⊥.
};

/// Options of the closure check.
struct ClosureOptions {
  /// Accept a missing pts conclusion when a present pts fact for the same
  /// (variable, heap) pair subsumes its transformation — the closure
  /// notion that matches a CollapseSubsumedPts run. Transformer-string
  /// abstraction only; ignored otherwise. The driver verifies exact
  /// closure (it solves with collapsing off).
  bool ModuloSubsumption = false;
  /// When set, receives the pass's join counters, also when the pass
  /// finds a counterexample.
  ClosureStats *Stats = nullptr;
};

/// Certifies that no deduction rule can derive a tuple missing from \p R
/// (R is mutable only because domain operations intern/memoize). Fails
/// immediately when the run did not converge — closure of a truncated
/// result is undefined. On failure \p Counterexample names the rule and
/// the derivable-but-absent tuple.
bool checkClosure(const facts::FactDB &DB, analysis::Results &R,
                  const ClosureOptions &Opts, std::string &Counterexample);

/// Certifies the provenance graph of \p R (requires R.Prov): every
/// recorded node's fact is present in its relation, its premises are
/// recorded, well-founded, and grounded in input facts, and re-applying
/// the recorded rule to the recorded premises reproduces the conclusion
/// exactly; conversely (unless the graph is truncated) every relation
/// tuple has a recorded derivation. On failure \p Counterexample names
/// the offending node or tuple.
bool checkSupport(const facts::FactDB &DB, analysis::Results &R,
                  std::string &Counterexample);

/// Closure and support of one result over a single build of the
/// input-fact indices and derived-relation sets the two checks share —
/// how a commit, a replayed journal and a verifyFactDB cell certify. A
/// unify result is certified against unifyView(DB), the facts its
/// (provenance-recording) native run closes over; every other result
/// against \p DB. Call closure() before support() to share the relation
/// sets as well as the input indices.
class Certifier {
public:
  Certifier(const facts::FactDB &DB, analysis::Results &R);
  ~Certifier();

  /// checkClosure over the shared build.
  bool closure(const ClosureOptions &Opts, std::string &Counterexample);
  /// checkSupport over the shared build.
  bool support(std::string &Counterexample);

  /// The facts the result is certified against: unifyView(DB) for a
  /// unify result, \p DB otherwise. A warm-start snapshot of the result
  /// is fingerprinted against these, as its solve was.
  const facts::FactDB &facts() const;

private:
  struct Shared;
  std::unique_ptr<Shared> S;
};

/// Renders \p R as sorted, engine-independent lines: entity ids resolve
/// through \p DB's name tables and transformation/context ids through the
/// result's own domain, so two runs agree exactly when their relations
/// hold the same values — regardless of interning order. The byte-level
/// currency of every differential comparison.
std::vector<std::string> canonicalLines(const facts::FactDB &DB,
                                        const analysis::Results &R);

/// Compares two canonical serializations. On mismatch \p Counterexample
/// is the first line of the symmetric difference, labelled with the side
/// (\p ALabel / \p BLabel) that owns it.
bool diffLines(const std::vector<std::string> &A, const std::string &ALabel,
               const std::vector<std::string> &B, const std::string &BLabel,
               std::string &Counterexample);

/// Snapshot save -> restore -> re-solve identity for one cell. Solves \p
/// Cfg over \p DB, leaves a converged snapshot in \p Dir, probes and
/// resumes it, and requires the resumed result to serialize identically;
/// the snapshot is removed on the way out. A snapshot already present in
/// \p Dir is verified instead of overwritten — if it is stale (the facts
/// or configuration changed since it was written) the check fails with
/// the probe's diagnostic.
bool checkSnapshotRoundTrip(const facts::FactDB &DB, const ctx::Config &Cfg,
                            bool UseDatalog, const std::string &Dir,
                            std::string &Counterexample);

/// What verifyFactDB runs.
struct VerifyOptions {
  ctx::Abstraction Abs = ctx::Abstraction::TransformerString;
  /// Configuration names (ctx::configNames vocabulary), most precise
  /// first; empty selects the full ladder.
  std::vector<std::string> Configs;
  /// Back-ends to certify.
  bool Native = true;
  bool Datalog = true;
  /// Check toggles.
  bool Closure = true;
  bool Support = true;
  bool Differential = true;
  bool Monotonic = true;
  bool Oracle = true;
  bool Snapshot = true;
  /// Demand-driven spot checks per configuration.
  std::size_t Samples = 8;
  std::uint64_t Seed = 1;
  /// Directory for the snapshot round-trip check; the check is skipped
  /// when empty.
  std::string SnapshotDir;
};

/// Runs every enabled check over \p DB, appending one row per check to
/// \p Report with cells prefixed "\p CellPrefix/". \returns true when no
/// appended row failed.
bool verifyFactDB(const facts::FactDB &DB, const std::string &CellPrefix,
                  const VerifyOptions &Opts, verdict::Report &Report);

} // namespace verify
} // namespace ctp

#endif // CTP_VERIFY_VERIFY_H
