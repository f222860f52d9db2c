//===- analysis/Provenance.h - First-derivation provenance ------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded-memory record of how the native solver first derived each
/// tuple. Every derived fact becomes one interned node carrying exactly
/// one edge: the rule that fired first for it plus up to two derived-fact
/// premises (input-predicate premises are summarized by a single aux
/// word — the variable, invoke, or heap that selects them, which together
/// with the rule and conclusion identifies the input fact uniquely).
///
/// Recording first derivations only keeps memory linear in the number of
/// derived tuples rather than in the (potentially much larger) number of
/// rule firings; a MaxEdges cap bounds it absolutely, after which the
/// graph marks itself truncated and silently stops recording. Later
/// lookups of unrecorded facts return InvalidNode and chain walks simply
/// stop there — explanations degrade to prefixes, never to garbage.
///
/// The recorder is native-solver-only. The Datalog back-end evaluates the
/// same rules but does not expose per-tuple firing order; requesting
/// provenance there is reported and ignored. Checkpoint snapshots do not
/// serialize the graph, so a resumed run drops provenance cleanly (the
/// restored relations would lack nodes for their tuples, making any
/// partially kept graph misleading) — see DESIGN.md.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_PROVENANCE_H
#define CTP_ANALYSIS_PROVENANCE_H

#include "analysis/Facts.h"
#include "ctx/Domain.h"
#include "facts/FactDB.h"
#include "support/Interner.h"
#include "support/Memory.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace ctp {
namespace analysis {

/// Which derived relation a provenance node's fact belongs to. FactKeys
/// are only unique within one relation, so nodes intern (relation, key).
enum class ProvRel : std::uint8_t { Pts, Hpts, Hload, Call, Reach, Gpts };

/// The rule that first derived a fact (the solver's Figure 3 sites, with
/// STORE/PARAM/RET/IND collapsed across their driving sides — both sides
/// fire the same logical rule).
enum class ProvRule : std::uint8_t {
  Entry,    ///< reach(main, [entry]) axiom; no premises.
  Assign,   ///< pts <- pts, assign.               Aux: source variable.
  Cast,     ///< pts <- pts, cast, subtype filter. Aux: source variable.
  Load,     ///< hload <- pts, load.               Aux: base variable.
  Store,    ///< hpts <- pts(value), pts(base).    Aux: value variable.
  Param,    ///< pts <- pts(actual), call.         Aux: invocation.
  Ret,      ///< pts <- pts(return), call.         Aux: invocation.
  Throw,    ///< pts <- pts(thrown), call.         Aux: invocation.
  GStore,   ///< gpts <- pts, global_store.        Aux: source variable.
  VirtCall, ///< call <- pts(receiver).            Aux: invocation.
  VirtThis, ///< pts(this) <- pts(receiver), call. Aux: invocation.
  Ind,      ///< pts <- hpts, hload.
  Reach,    ///< reach <- call.                    Aux: invocation.
  GLoad,    ///< pts <- gpts, reach.               Aux: global field.
  New,      ///< pts <- reach, assign_new.         Aux: heap site.
  Static,   ///< call <- reach, static_invoke.     Aux: invocation.
  Shortcut, ///< pts <- pts(actual), call (cutshortcut mode: the actual
            ///< forwarded straight to the call's assign_return targets
            ///< over a cut-plan shortcut edge). Aux: invocation.
};

/// The first-derivation graph. Append-only; owned by Results after a run.
class ProvenanceGraph {
public:
  static constexpr std::uint32_t InvalidNode = UINT32_MAX;

  struct Edge {
    ProvRule Rule;
    std::uint32_t Prem0 = InvalidNode; ///< first derived-fact premise
    std::uint32_t Prem1 = InvalidNode; ///< second derived-fact premise
    std::uint32_t Aux = UINT32_MAX;    ///< input-fact selector (see rule)
  };

  explicit ProvenanceGraph(std::size_t MaxEdges) : MaxEdges(MaxEdges) {}

  /// Records the first derivation of (\p Rel, \p K). Call exactly once
  /// per inserted tuple, right after the insert succeeds. Past the edge
  /// cap this only sets the truncated flag.
  void note(ProvRel Rel, const FactKey &K, ProvRule Rule,
            std::uint32_t Prem0, std::uint32_t Prem1, std::uint32_t Aux) {
    if (Nodes.size() >= MaxEdges) {
      WasTruncated = true;
      return;
    }
    if (2 * (Nodes.size() + 1) > Slots.size())
      grow();
    std::uint32_t &Slot = Slots[slotOf(Rel, K)];
    if (Slot != InvalidNode)
      return; // Already recorded (first derivation wins).
    Slot = static_cast<std::uint32_t>(Nodes.size());
    Nodes.push_back({Rel, K, {Rule, Prem0, Prem1, Aux}});
    // The recorder is a big owner too: charge the memory governor one
    // node plus its index entry (approximate; see support/Memory.h).
    memgov::noteBytes(
        static_cast<std::int64_t>(sizeof(Nodes.back()) + 48));
  }

  /// Replaces this graph's nodes with \p Prev's (the incremental solver
  /// continues the previous run's graph), keeping this graph's edge cap.
  /// \returns false, changing nothing, when \p Prev exceeds the cap.
  bool copyNodesFrom(const ProvenanceGraph &Prev) {
    if (Prev.Nodes.size() > MaxEdges)
      return false;
    Nodes = Prev.Nodes;
    Slots = Prev.Slots;
    WasTruncated = Prev.WasTruncated;
    return true;
  }

  /// Node id of (\p Rel, \p K), or InvalidNode when it was never recorded
  /// (disabled run, truncated graph, or an axiom of a resumed run).
  std::uint32_t lookup(ProvRel Rel, const FactKey &K) const {
    return Slots.empty() ? InvalidNode : Slots[slotOf(Rel, K)];
  }

  std::size_t size() const { return Nodes.size(); }
  bool truncated() const { return WasTruncated; }

  ProvRel relOf(std::uint32_t Node) const { return Nodes[Node].Rel; }
  const FactKey &factOf(std::uint32_t Node) const { return Nodes[Node].Key; }
  const Edge &edgeOf(std::uint32_t Node) const { return Nodes[Node].E; }

  /// The derivation chain of \p Node: the node itself followed by its
  /// premises in deterministic pre-order (Prem0 before Prem1), each node
  /// at most once, at most \p MaxNodes entries. Unrecorded premises are
  /// skipped, so a truncated graph yields a chain prefix.
  std::vector<std::uint32_t> chain(std::uint32_t Node,
                                   std::size_t MaxNodes) const;

private:
  struct Node {
    ProvRel Rel;
    FactKey Key;
    Edge E;
  };

  /// The slot of \p Slots holding (\p Rel, \p K)'s node id, or the
  /// empty slot where it belongs (open addressing, linear probing).
  std::size_t slotOf(ProvRel Rel, const FactKey &K) const {
    const std::size_t Mask = Slots.size() - 1;
    std::size_t S =
        hashCombine(FactKeyHash()(K), static_cast<std::uint64_t>(Rel)) & Mask;
    while (Slots[S] != InvalidNode &&
           (Nodes[Slots[S]].Rel != Rel || Nodes[Slots[S]].Key != K))
      S = (S + 1) & Mask;
    return S;
  }

  /// Doubles the slot table (at least 1024 slots) and re-files every node.
  void grow() {
    Slots.assign(std::max<std::size_t>(1024, 2 * Slots.size()),
                 InvalidNode);
    for (std::uint32_t Id = 0; Id < Nodes.size(); ++Id)
      Slots[slotOf(Nodes[Id].Rel, Nodes[Id].Key)] = Id;
  }

  std::size_t MaxEdges;
  bool WasTruncated = false;
  std::vector<Node> Nodes;
  /// Node ids by (relation, fact), InvalidNode when empty. At most half
  /// full, so probes stay short.
  std::vector<std::uint32_t> Slots;
};

/// Renders the derivation chain of \p Node as indented human-readable
/// lines ("pts(v, h) [T] <= rule ..."), resolving entity names through
/// \p DB and transformation ids through \p Dom. \p ReachCtxts interprets
/// reach-context ids. Bounded by \p MaxNodes chain entries.
std::string renderProvenanceChain(
    const ProvenanceGraph &G, std::uint32_t Node, const facts::FactDB &DB,
    const ctx::Domain &Dom,
    const Interner<ctx::CtxtVec, ctx::CtxtVecHash> &ReachCtxts,
    std::size_t MaxNodes = 32);

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_PROVENANCE_H
