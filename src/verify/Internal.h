//===- verify/Internal.h - Shared verifier machinery ------------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internals shared by the closure and support certifiers: the input-fact
/// indices (a deliberate restatement of the solver's buildInputIndices —
/// the verifier re-derives its own view of the rules rather than trusting
/// solver state), the derived-relation membership sets and the closure
/// check's keyed join lists built from a Results object, and the fact
/// renderers used for counterexamples and canonical serialization.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_VERIFY_INTERNAL_H
#define CTP_VERIFY_INTERNAL_H

#include "analysis/Results.h"
#include "facts/FactDB.h"
#include "verify/Verify.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ctp {
namespace verify {
namespace detail {

inline std::uint64_t pairKey(std::uint32_t A, std::uint32_t B) {
  return (static_cast<std::uint64_t>(A) << 32) | B;
}

/// Per-entity-kind input-fact indices, mirroring the joins the rules
/// need. Built independently from the FactDB so the certifiers share no
/// state with either solver.
struct InputIndices {
  explicit InputIndices(const facts::FactDB &DB);

  bool isSubtype(std::uint32_t Sub, std::uint32_t Super) const {
    return SubtypePairs.count(pairKey(Sub, Super)) != 0;
  }

  using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  std::vector<std::vector<std::uint32_t>> AssignFrom; // From -> To
  std::vector<PairList> LoadByBase;       // Base -> (Field, To)
  std::vector<PairList> StoreByValue;     // From -> (Field, Base)
  std::vector<PairList> ActualByVar;      // Var -> (Invoke, Ordinal)
  std::vector<PairList> VirtByReceiver;   // Receiver -> (Invoke, Sig)
  std::vector<PairList> StaticByMethod;   // InMethod -> (Invoke, Target)
  std::vector<PairList> AssignNewByMethod; // InMethod -> (Heap, To)
  std::vector<PairList> CastByFrom;       // From -> (To, Type)
  std::vector<PairList> GlobalLoadByGlobal; // Global -> (To, InMethod)
  std::unordered_map<std::uint64_t, std::uint32_t> FormalOf; // (M,O) -> Var
  std::unordered_map<std::uint64_t, std::uint32_t> Dispatch; // (T,S) -> M
  std::vector<std::vector<std::uint32_t>> ReturnByVar;      // Var -> Method
  std::vector<std::vector<std::uint32_t>> AssignRetByInvoke; // Invoke -> To
  std::vector<std::vector<std::uint32_t>> ThrowByVar;       // Var -> Method
  std::vector<std::vector<std::uint32_t>> CatchByInvoke;    // Invoke -> To
  std::vector<std::vector<std::uint32_t>> GlobalStoreByValue; // From -> G
  std::vector<std::uint32_t> HeapTypeOf; // Heap -> Type (InvalidId-filled)
  std::vector<std::uint32_t> ThisOf;     // Method -> Var (InvalidId-filled)
  std::unordered_set<std::uint64_t> SubtypePairs;
};

/// Membership sets over a Results object's relations — the "complete
/// relations" whose tuples the certifiers look up.
struct DerivedSets {
  explicit DerivedSets(const analysis::Results &R);

  std::unordered_set<analysis::FactKey, analysis::FactKeyHash> PtsSet,
      HptsSet, HloadSet, CallSet, ReachSet, GptsSet;
};

/// Immutable partner lists of one two-premise join, keyed by the part of
/// a transformation that comp must agree on. Entries sit in one array
/// sorted by (owner, key), with per-owner offsets; AnyKey sorts last, so
/// an owner's any-key entries form the tail of its run. A probe with key
/// K visits the owner's K entries and its any-key entries; a probe with
/// AnyKey visits the whole owner. Entries keep their insertion order
/// within one (owner, key), so enumeration order is deterministic.
class KeyedPartners {
public:
  static constexpr std::uint32_t AnyKey = UINT32_MAX;
  /// An owner id no probe finds entries under.
  static constexpr std::uint32_t NoOwner = UINT32_MAX;

  struct Row {
    std::uint32_t Owner, Key, Other;
    ctx::TransformId T;
  };

  KeyedPartners() = default;

  /// Lists \p RowOf(F) for every fact F of \p Facts under owners below
  /// \p NumOwners. \p RowOf is called twice per fact.
  template <typename Range, typename RowFn>
  KeyedPartners(std::size_t NumOwners, const Range &Facts, RowFn &&RowOf) {
    // Counting sort by owner keeps insertion order within an owner; a
    // stable sort by key then groups each owner's run.
    Begin.assign(NumOwners + 1, 0);
    for (const auto &F : Facts)
      ++Begin[RowOf(F).Owner + 1];
    for (std::size_t O = 0; O < NumOwners; ++O)
      Begin[O + 1] += Begin[O];
    Entries.resize(Begin.back());
    std::vector<std::uint32_t> Next(Begin.begin(), Begin.end() - 1);
    for (const auto &F : Facts) {
      Row X = RowOf(F);
      Entries[Next[X.Owner]++] = Entry{X.Key, X.Other, X.T};
    }
    for (std::size_t O = 0; O < NumOwners; ++O)
      std::stable_sort(
          Entries.begin() + Begin[O], Entries.begin() + Begin[O + 1],
          [](const Entry &A, const Entry &B) { return A.Key < B.Key; });
  }

  /// Calls \p Fn(Other, T) for every entry of \p Owner whose key is
  /// compatible with \p Key, stopping as soon as \p Fn returns false.
  /// \returns false iff \p Fn stopped the walk.
  template <typename Fn>
  bool probe(std::uint32_t Owner, std::uint32_t Key, Fn &&F) const {
    if (static_cast<std::size_t>(Owner) + 1 >= Begin.size())
      return true;
    const Entry *First = Entries.data() + Begin[Owner];
    const Entry *Last = Entries.data() + Begin[Owner + 1];
    auto Visit = [&](const Entry *B, const Entry *E) {
      for (; B != E; ++B)
        if (!F(B->Other, B->T))
          return false;
      return true;
    };
    if (Key == AnyKey)
      return Visit(First, Last);
    auto ByKey = [](const Entry &E, std::uint32_t K) { return E.Key < K; };
    const Entry *AnyRun = std::lower_bound(First, Last, AnyKey, ByKey);
    const Entry *Run = std::lower_bound(First, AnyRun, Key, ByKey);
    const Entry *RunEnd = Run;
    while (RunEnd != AnyRun && RunEnd->Key == Key)
      ++RunEnd;
    return Visit(Run, RunEnd) && Visit(AnyRun, Last);
  }

private:
  struct Entry {
    std::uint32_t Key, Other;
    ctx::TransformId T;
  };
  std::vector<std::uint32_t> Begin; // Owner -> first entry; NumOwners + 1.
  std::vector<Entry> Entries;
};

/// The membership sets plus the keyed join lists the closure rules probe.
///
/// The join keys are computed here from transformation values, never
/// read from the solver's index, so the closure check does not trust the
/// structure it certifies. A fact's left key is the side it contributes
/// as comp's first operand, its right key the side it contributes as the
/// second: for transformer strings the first entry and the first exit
/// letter (AnyKey when that side is empty), the two letters `match`
/// cancels against each other first; for context strings the
/// view-interned Out and In strings, which must be equal to compose.
/// comp(A, B) != ⊥ therefore implies compatible leftKey(A) and
/// rightKey(B). inv swaps the sides, so rightKey(inv(C)) == leftKey(C)
/// and every probe uses the left key of its driving fact.
struct DerivedView : DerivedSets {
  DerivedView(const facts::FactDB &DB, const analysis::Results &R);

  std::uint32_t leftKey(ctx::TransformId T) const { return LeftKeys[T]; }

  /// \returns the HloadByBaseField owner of (Base, Field), or NoOwner
  /// when no hload fact has that base and field.
  std::uint32_t hloadSlot(std::uint32_t Base, std::uint32_t Field) const {
    auto It = HloadSlotOf.find(pairKey(Base, Field));
    return It == HloadSlotOf.end() ? KeyedPartners::NoOwner : It->second;
  }

  KeyedPartners PtsByVar;         // Var -> (Heap, T) by leftKey(T)
  KeyedPartners CallByInvoke;     // Invoke -> (Method, T) by rightKey(T)
  KeyedPartners CallByCallee;     // Method -> (Invoke, T) by leftKey(T)
  KeyedPartners HloadByBaseField; // hloadSlot -> (Var, T) by rightKey(T)
  std::vector<std::vector<std::uint32_t>> ReachByMethod; // Method -> CtxtId

private:
  std::vector<std::uint32_t> LeftKeys; // TransformId -> left key
  std::unordered_map<std::uint64_t, std::uint32_t> HloadSlotOf;
};

/// The two certifiers over prebuilt indices, so one certification can
/// build them once for both (verify::Certifier). The *Ready checks are
/// each certifier's preconditions — what must hold before the derived
/// views can be built at all; on failure they fill \p Counterexample.
bool closureReady(const analysis::Results &R, std::string &Counterexample);
bool closureOver(const facts::FactDB &DB, analysis::Results &R,
                 const InputIndices &In, const DerivedView &View,
                 const ClosureOptions &Opts, std::string &Counterexample);
bool supportReady(const analysis::Results &R, std::string &Counterexample);
bool supportOver(const facts::FactDB &DB, analysis::Results &R,
                 const InputIndices &In, const DerivedSets &Sets,
                 std::string &Counterexample);

/// Entity-name helpers: the recorded name, or "kind#id" when the table
/// has no (or an empty) entry.
std::string entityName(const std::vector<std::string> &Names,
                       std::uint32_t Id, const char *Kind);

// Fact renderers. Engine-independent: transformation ids render through
// the result's own domain as values, context ids through its interner.
std::string renderPts(const facts::FactDB &DB, const analysis::Results &R,
                      const analysis::PtsFact &F);
std::string renderHpts(const facts::FactDB &DB, const analysis::Results &R,
                       const analysis::HptsFact &F);
std::string renderHload(const facts::FactDB &DB, const analysis::Results &R,
                        const analysis::HloadFact &F);
std::string renderCall(const facts::FactDB &DB, const analysis::Results &R,
                       const analysis::CallFact &F);
std::string renderReach(const facts::FactDB &DB, const analysis::Results &R,
                        const analysis::ReachFact &F);
std::string renderGpts(const facts::FactDB &DB, const analysis::Results &R,
                       const analysis::GptsFact &F);

/// Renders the (relation, key) pair of a provenance node.
std::string renderFact(const facts::FactDB &DB, const analysis::Results &R,
                       analysis::ProvRel Rel, const analysis::FactKey &K);

} // namespace detail
} // namespace verify
} // namespace ctp

#endif // CTP_VERIFY_INTERNAL_H
