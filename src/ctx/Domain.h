//===- ctx/Domain.h - Interned transformation domains -----------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime interface between the deduction rules of Figure 3 and the
/// non-logical symbols of Figure 4 (comp, inv, target, record, merge,
/// merge_s), instantiated for one abstraction × flavour × (m, h)
/// configuration.
///
/// Abstract transformations are interned to dense 32-bit ids so derived
/// relations are flat integer tuples; composition and inverse are memoized
/// per id pair and per id.
///
/// Section 7 of the paper makes joins cheap by indexing on the part of a
/// transformation that composition must agree on. Every interned id
/// carries two such join keys, outKey and inKey, and the solver's join
/// indexes (analysis/JoinIndex.h) list partners by key so a rule only
/// probes partners that can compose. Key soundness: comp(A, B) ≠ ⊥
/// implies keysCompatible(outKey(A), inKey(B)); for context strings the
/// converse holds too. Also inKey(inv(X)) == outKey(X), so every join
/// probes with a key of its driving fact.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_CTX_DOMAIN_H
#define CTP_CTX_DOMAIN_H

#include "ctx/Config.h"
#include "ctx/ContextString.h"
#include "ctx/Ctxt.h"
#include "ctx/TransformerString.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ctp {
namespace ctx {

/// Dense id of an interned abstract context transformation.
using TransformId = std::uint32_t;

/// Flavour-instantiated, interned context-transformation domain.
///
/// Method contexts appearing as explicit arguments (record's M, merge_s's
/// M, target's result) are truncated context strings in CtxtM (length <=
/// m); they are the reach(P, M) attribute of Figure 3.
class Domain {
public:
  /// \p ClassOfHeap maps heap-site ids to declaring-class ids; required by
  /// type sensitivity (classOf(H)) and ignored otherwise.
  Domain(const Config &Cfg, std::vector<std::uint32_t> ClassOfHeap);
  virtual ~Domain() = default;

  Domain(const Domain &) = delete;
  Domain &operator=(const Domain &) = delete;

  const Config &config() const { return Cfg; }

  /// Join key that composes with every key.
  static constexpr std::uint32_t AnyKey = UINT32_MAX;

  /// Join key of \p T's output side, the one its right operand in comp
  /// meets: the interned id of a context-string pair's Out string, or a
  /// transformer string's first entry letter (the first one `match`
  /// cancels), AnyKey when it has no entries.
  std::uint32_t outKey(TransformId T) const { return OutKeys[T]; }

  /// Join key of \p T's input side, the one its left operand in comp
  /// meets: the id of the pair's In string, or the first exit letter
  /// (AnyKey when there is none).
  std::uint32_t inKey(TransformId T) const { return InKeys[T]; }

  /// Whether an outKey and an inKey may compose (a filter: comp still
  /// judges every pair that passes it).
  static bool keysCompatible(std::uint32_t Out, std::uint32_t In) {
    return Out == In || Out == AnyKey || In == AnyKey;
  }

  /// record(M): the transformation attached to a heap allocation observed
  /// under reachable-context prefix \p M. Result lives in CtxtT_{h,m}.
  virtual TransformId record(const CtxtVec &M) = 0;

  /// comp: function composition A;B truncated into CtxtT_{MaxExits,
  /// MaxEntries}. \returns nullopt when the composition is ⊥ (transformer
  /// strings) or the middles disagree (context strings); such facts are
  /// never derived, matching the paper's comp predicate.
  virtual std::optional<TransformId> comp(TransformId A, TransformId B,
                                          unsigned MaxExits,
                                          unsigned MaxEntries) = 0;

  /// Semigroup inverse.
  virtual TransformId inv(TransformId A) = 0;

  /// merge: the call-edge transformation of a virtual invocation \p Invoke
  /// whose receiver points to heap site \p Heap under transformation \p B.
  /// Result lives in CtxtT_{m,m}.
  virtual TransformId mergeVirtual(std::uint32_t Heap, std::uint32_t Invoke,
                                   TransformId B) = 0;

  /// merge_s: the call-edge transformation of a static invocation
  /// \p Invoke occurring in a method reachable under prefix \p M.
  virtual TransformId mergeStatic(std::uint32_t Invoke,
                                  const CtxtVec &M) = 0;

  /// target: the known prefix of the callee's method context given a call
  /// edge's transformation; feeds reach(P, M).
  virtual CtxtVec target(TransformId Call) const = 0;

  // --- Static-field extension (the paper's implementation supports
  // static fields; Figure 3 elides them). Data through a global severs
  // the link between storing and loading method contexts. ---

  /// globalize: projects the target context out of \p B; the result lives
  /// in CtxtT_{h,0} and qualifies a global-field points-to fact by the
  /// pointee's heap context only.
  virtual TransformId globalize(TransformId B) = 0;

  /// retarget: re-enters a concrete method context: the returned
  /// transformation maps whatever \p A accepted into (any context with
  /// prefix) \p M. Used when loading a global inside a method reachable
  /// under prefix M.
  virtual TransformId retarget(TransformId A, const CtxtVec &M) = 0;

  /// Number of distinct transformations interned so far.
  virtual std::size_t size() const = 0;

  /// Debug rendering of an interned transformation.
  virtual std::string toString(TransformId Id,
                               const ElemPrinter &Printer) const = 0;
  std::string toString(TransformId Id) const {
    return toString(Id, printElemDefault);
  }

  // --- Checkpoint serialization (analysis/Checkpoint.h). ---

  /// Flattens every interned transformation, in id order, into \p Out as
  /// a self-delimiting u32 stream. Because interning assigns dense ids in
  /// first-seen order, re-importing the stream into a fresh domain of the
  /// same configuration reproduces the id assignment exactly — which is
  /// what lets a resumed run keep using TransformIds from the snapshot.
  virtual void exportInterned(std::vector<std::uint32_t> &Out) const = 0;

  /// Rebuilds the interner from an exportInterned stream. Must be called
  /// on a freshly constructed domain. \returns false when the stream is
  /// malformed or the reproduced ids diverge from their position (a
  /// corruption guard); the domain must then be discarded. Memoization
  /// caches are not restored — they refill lazily on use without
  /// affecting results.
  virtual bool importInterned(const std::vector<std::uint32_t> &Words) = 0;

  // --- Concrete-value access for tests and the precision comparisons. ---

  /// The transformer string behind \p Id; asserts on a context-string
  /// domain.
  virtual const Transformer &transformer(TransformId Id) const;

  /// The context-string pair behind \p Id; asserts on a transformer
  /// domain.
  virtual const CtxtPair &ctxtPair(TransformId Id) const;

protected:
  /// The context element contributed by a virtual invocation: the call
  /// site under call-site sensitivity, the receiver heap site under
  /// object and hybrid sensitivity, classOf(heap site) under type
  /// sensitivity.
  CtxtElem virtualElem(std::uint32_t Heap, std::uint32_t Invoke) const;

  /// The context element for an invocation site used by static-call
  /// merges. Under hybrid sensitivity call-site elements are offset past
  /// the heap-site element range so the two entity kinds cannot collide
  /// within one context string.
  CtxtElem invokeElem(std::uint32_t Invoke) const;

  /// True when merge_s pushes a call-site element (call-site and hybrid
  /// flavours); false when it is the context-preserving prefix filter
  /// (object and type flavours).
  bool staticPushesCallSite() const {
    return Cfg.Flav == Flavour::CallSite || Cfg.Flav == Flavour::Hybrid;
  }

  /// Records the join keys of \p Id; implementations call it once per
  /// newly interned id, in id order.
  void noteKeys(TransformId Id, std::uint32_t Out, std::uint32_t In) {
    assert(Id == OutKeys.size() && "join keys noted out of id order");
    (void)Id;
    OutKeys.push_back(Out);
    InKeys.push_back(In);
  }

  Config Cfg;
  std::vector<std::uint32_t> ClassOfHeap;

private:
  std::vector<std::uint32_t> OutKeys, InKeys;
};

/// Creates the domain implementation selected by \p Cfg.Abs.
std::unique_ptr<Domain> makeDomain(const Config &Cfg,
                                   std::vector<std::uint32_t> ClassOfHeap);

} // namespace ctx
} // namespace ctp

#endif // CTP_CTX_DOMAIN_H
