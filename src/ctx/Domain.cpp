//===- ctx/Domain.cpp - Interned transformation domains -------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "ctx/Domain.h"

#include "support/Interner.h"

#include <cassert>
#include <unordered_map>

using namespace ctp;
using namespace ctp::ctx;

Domain::Domain(const Config &Cfg, std::vector<std::uint32_t> ClassOfHeap)
    : Cfg(Cfg), ClassOfHeap(std::move(ClassOfHeap)) {
  assert(Cfg.validate().empty() && "invalid analysis configuration");
}

CtxtElem Domain::virtualElem(std::uint32_t Heap, std::uint32_t Invoke) const {
  switch (Cfg.Flav) {
  case Flavour::CallSite:
    return elemOfEntity(Invoke);
  case Flavour::Object:
  case Flavour::Hybrid:
    return elemOfEntity(Heap);
  case Flavour::Type:
    assert(Heap < ClassOfHeap.size() && "no classOf entry for heap site");
    return elemOfEntity(ClassOfHeap[Heap]);
  }
  assert(false && "unknown flavour");
  return EntryElem;
}

CtxtElem Domain::invokeElem(std::uint32_t Invoke) const {
  if (Cfg.Flav != Flavour::Hybrid)
    return elemOfEntity(Invoke);
  // Hybrid contexts interleave heap sites and call sites; shift the call
  // sites past the heap-site range (ClassOfHeap is sized to it).
  return elemOfEntity(static_cast<std::uint32_t>(ClassOfHeap.size()) +
                      Invoke);
}

const Transformer &Domain::transformer(TransformId) const {
  assert(false && "not a transformer-string domain");
  static Transformer Dummy;
  return Dummy;
}

const CtxtPair &Domain::ctxtPair(TransformId) const {
  assert(false && "not a context-string domain");
  static CtxtPair Dummy;
  return Dummy;
}

namespace {

/// Cache key for memoized binary operations over interned ids. Dims are
/// bounded by MaxCtxtDepth (<= 7 fits in 3 bits); ids are bounded by the
/// 2^28 interned transformations this packing supports, far beyond any
/// workload in this project.
std::uint64_t binKey(std::uint32_t A, std::uint32_t B, unsigned I,
                     unsigned K) {
  assert(A < (1u << 28) && B < (1u << 28) && "transform id overflow");
  assert(I < 8 && K < 8 && "dimension overflow");
  return (static_cast<std::uint64_t>(A)) |
         (static_cast<std::uint64_t>(B) << 28) |
         (static_cast<std::uint64_t>(I) << 56) |
         (static_cast<std::uint64_t>(K) << 59);
}

/// Sentinel stored in the memo table for ⊥ results.
constexpr TransformId BottomId = UINT32_MAX;

/// Id-indexed memo of a unary operation over interned ids (inv).
class UnaryMemo {
public:
  template <typename Fn> TransformId get(TransformId A, Fn &&Compute) {
    if (A < Memo.size() && Memo[A] != BottomId)
      return Memo[A];
    TransformId R = Compute();
    if (Memo.size() <= A)
      Memo.resize(static_cast<std::size_t>(A) + 1, BottomId);
    Memo[A] = R;
    return R;
  }

private:
  std::vector<TransformId> Memo;
};

/// Serialization helpers for exportInterned/importInterned: a CtxtVec is
/// encoded as its length followed by its elements.
void putVec(std::vector<std::uint32_t> &Out, const CtxtVec &V) {
  Out.push_back(V.size());
  for (CtxtElem E : V)
    Out.push_back(E);
}

bool getVec(const std::vector<std::uint32_t> &W, std::size_t &Pos,
            CtxtVec &V) {
  if (Pos >= W.size())
    return false;
  std::uint32_t N = W[Pos++];
  if (N > CtxtVec::capacity() || Pos + N > W.size())
    return false;
  V.clear();
  for (std::uint32_t I = 0; I < N; ++I)
    V.push_back(W[Pos++]);
  return true;
}

//===----------------------------------------------------------------------===//
// Context-string domain (Section 4.1 / left column of Figure 4)
//===----------------------------------------------------------------------===//

class CtxtStringDomain final : public Domain {
public:
  CtxtStringDomain(const Config &Cfg, std::vector<std::uint32_t> COH)
      : Domain(Cfg, std::move(COH)) {}

  TransformId record(const CtxtVec &M) override {
    return intern(recordPair(M, Cfg.HeapDepth));
  }

  std::optional<TransformId> comp(TransformId A, TransformId B,
                                  unsigned MaxExits,
                                  unsigned MaxEntries) override {
    // Context-string composition needs no truncation: the rule schema only
    // ever joins middles of equal truncation length, and the outer strings
    // already satisfy the target bounds.
    std::uint64_t Key = binKey(A, B, MaxExits, MaxEntries);
    auto It = CompCache.find(Key);
    if (It != CompCache.end()) {
      if (It->second == BottomId)
        return std::nullopt;
      return It->second;
    }
    std::optional<CtxtPair> R = composePairs(Pairs[A], Pairs[B]);
    TransformId Id = R ? intern(*R) : BottomId;
    CompCache.emplace(Key, Id);
    if (Id == BottomId)
      return std::nullopt;
    return Id;
  }

  TransformId inv(TransformId A) override {
    return InvCache.get(A, [&] { return intern(inversePair(Pairs[A])); });
  }

  TransformId mergeVirtual(std::uint32_t Heap, std::uint32_t Invoke,
                           TransformId B) override {
    const CtxtPair &P = Pairs[B];
    CtxtElem E = virtualElem(Heap, Invoke);
    CtxtVec Callee;
    Callee.push_back(E);
    // Call-site sensitivity pushes onto the *caller method context* (the
    // pair's Out); object/type sensitivity pushes onto the receiver's
    // *heap context* (the pair's In). Figure 4, left column.
    const CtxtVec &Base = Cfg.Flav == Flavour::CallSite ? P.Out : P.In;
    for (CtxtElem C : Base)
      Callee.push_back(C);
    return intern({P.Out, Callee.takePrefix(Cfg.MethodDepth)});
  }

  TransformId mergeStatic(std::uint32_t Invoke, const CtxtVec &M) override {
    if (!staticPushesCallSite())
      return intern({M, M}); // merge_s^c(I, M) = (M, M).
    CtxtVec Callee;
    Callee.push_back(invokeElem(Invoke));
    for (CtxtElem C : M)
      Callee.push_back(C);
    return intern({M, Callee.takePrefix(Cfg.MethodDepth)});
  }

  CtxtVec target(TransformId Call) const override {
    return targetPair(Pairs[Call]);
  }

  TransformId globalize(TransformId B) override {
    // (U, V) -> (U, ε): keep only the heap-context side.
    return intern({Pairs[B].In, CtxtVec()});
  }

  TransformId retarget(TransformId A, const CtxtVec &M) override {
    // (U, _) -> (U, M): the loader's own reachable context. The explicit
    // enumeration over reach is exactly the context-string redundancy the
    // transformer abstraction avoids.
    return intern({Pairs[A].In, M});
  }

  std::size_t size() const override { return Pairs.size(); }

  std::string toString(TransformId Id,
                       const ElemPrinter &Printer) const override {
    return printCtxtPair(Pairs[Id], Printer);
  }

  const CtxtPair &ctxtPair(TransformId Id) const override {
    return Pairs[Id];
  }

  void exportInterned(std::vector<std::uint32_t> &Out) const override {
    for (std::uint32_t Id = 0; Id < Pairs.size(); ++Id) {
      const CtxtPair &P = Pairs[Id];
      putVec(Out, P.In);
      putVec(Out, P.Out);
    }
  }

  bool importInterned(const std::vector<std::uint32_t> &Words) override {
    if (Pairs.size() != 0)
      return false; // Only a fresh domain can be restored into.
    std::size_t Pos = 0;
    while (Pos < Words.size()) {
      CtxtPair P;
      if (!getVec(Words, Pos, P.In) || !getVec(Words, Pos, P.Out))
        return false;
      TransformId Expected = Pairs.size();
      if (intern(P) != Expected)
        return false; // Duplicate value in the stream: corrupt.
    }
    return true;
  }

private:
  /// Interns \p P; a new id's join keys are the interned ids of its
  /// middle strings.
  TransformId intern(const CtxtPair &P) {
    std::uint32_t Fresh = Pairs.size();
    TransformId Id = Pairs.intern(P);
    if (Id == Fresh)
      noteKeys(Id, Middles.intern(P.Out), Middles.intern(P.In));
    return Id;
  }

  Interner<CtxtPair, CtxtPairHash> Pairs;
  Interner<CtxtVec, CtxtVecHash> Middles;
  std::unordered_map<std::uint64_t, TransformId> CompCache;
  UnaryMemo InvCache;
};

//===----------------------------------------------------------------------===//
// Transformer-string domain (Section 4.2 / right column of Figure 4)
//===----------------------------------------------------------------------===//

class TransformerDomain final : public Domain {
public:
  TransformerDomain(const Config &Cfg, std::vector<std::uint32_t> COH)
      : Domain(Cfg, std::move(COH)) {
    EpsilonId = intern(Transformer::identity());
  }

  TransformId record(const CtxtVec &) override {
    // record^t(_) = ε: an object is always allocated in exactly the
    // context of the allocating method — the identity transformation.
    return EpsilonId;
  }

  std::optional<TransformId> comp(TransformId A, TransformId B,
                                  unsigned MaxExits,
                                  unsigned MaxEntries) override {
    std::uint64_t Key = binKey(A, B, MaxExits, MaxEntries);
    auto It = CompCache.find(Key);
    if (It != CompCache.end()) {
      if (It->second == BottomId)
        return std::nullopt;
      return It->second;
    }
    std::optional<Transformer> R =
        composeTruncated(Strings[A], Strings[B], MaxExits, MaxEntries);
    TransformId Id = R ? intern(*R) : BottomId;
    CompCache.emplace(Key, Id);
    if (Id == BottomId)
      return std::nullopt;
    return Id;
  }

  TransformId inv(TransformId A) override {
    return InvCache.get(A, [&] { return intern(inverse(Strings[A])); });
  }

  TransformId mergeVirtual(std::uint32_t Heap, std::uint32_t Invoke,
                           TransformId B) override {
    const Transformer &T = Strings[B];
    CtxtElem E = virtualElem(Heap, Invoke);
    Transformer R;
    R.Exits = T.Entries; // B⁻¹ brings the receiver's context back...
    R.Wild = T.Wild;
    R.Entries.push_back(E);
    if (Cfg.Flav == Flavour::CallSite) {
      // ...then B re-derives the caller context and Î is pushed:
      // merge^t = trunc_{m,m}(B̌ · B̂ · Î), i.e. entries I · N.
      for (CtxtElem C : T.Entries)
        R.Entries.push_back(C);
    } else {
      // Object/type: B⁻¹ reaches the receiver's heap context, then the
      // new element is pushed: merge^t = B̌ · w · Â · Ê, entries E · A.
      for (CtxtElem C : T.Exits)
        R.Entries.push_back(C);
    }
    return intern(truncate(R, Cfg.MethodDepth, Cfg.MethodDepth));
  }

  TransformId mergeStatic(std::uint32_t Invoke, const CtxtVec &M) override {
    if (staticPushesCallSite())
      return intern(truncate(
          Transformer::entry(invokeElem(Invoke)), Cfg.MethodDepth,
          Cfg.MethodDepth));
    // Object/type: merge_s^t(I, M) = M̌·M̂, the prefix filter that forbids
    // return flow into unreachable caller contexts (Section 3).
    return intern(prefixFilter(M));
  }

  CtxtVec target(TransformId Call) const override {
    return targetPrefix(Strings[Call]);
  }

  TransformId globalize(TransformId B) override {
    // trunc_{h,0}: dropping all entries wildcards the target side unless
    // the transformation had no entries to begin with.
    return intern(truncate(Strings[B], Cfg.HeapDepth, 0));
  }

  TransformId retarget(TransformId A, const CtxtVec &M) override {
    // Ǎ·w·∅ -> Ǎ·∗·M̂: any context with prefix M may observe the value.
    Transformer R;
    R.Exits = Strings[A].Exits;
    R.Wild = true;
    R.Entries = M;
    return intern(
        truncate(R, Cfg.HeapDepth, Cfg.MethodDepth));
  }

  std::size_t size() const override { return Strings.size(); }

  std::string toString(TransformId Id,
                       const ElemPrinter &Printer) const override {
    return printTransformer(Strings[Id], Printer);
  }

  const Transformer &transformer(TransformId Id) const override {
    return Strings[Id];
  }

  void exportInterned(std::vector<std::uint32_t> &Out) const override {
    for (std::uint32_t Id = 0; Id < Strings.size(); ++Id) {
      const Transformer &T = Strings[Id];
      putVec(Out, T.Exits);
      putVec(Out, T.Entries);
      Out.push_back(T.Wild ? 1 : 0);
    }
  }

  bool importInterned(const std::vector<std::uint32_t> &Words) override {
    // A fresh transformer domain holds exactly the pre-interned identity
    // (id 0); a valid stream re-encodes it as its first value.
    if (Strings.size() != 1)
      return false;
    std::size_t Pos = 0;
    TransformId Expected = 0;
    while (Pos < Words.size()) {
      Transformer T;
      if (!getVec(Words, Pos, T.Exits) || !getVec(Words, Pos, T.Entries) ||
          Pos >= Words.size() || Words[Pos] > 1)
        return false;
      T.Wild = Words[Pos++] == 1;
      if (intern(T) != Expected)
        return false;
      ++Expected;
    }
    return Expected >= 1; // The stream must at least re-encode identity.
  }

private:
  /// Interns \p T; a new id's join keys are its first entry and exit
  /// letters, the pair `match` cancels first.
  TransformId intern(const Transformer &T) {
    std::uint32_t Fresh = Strings.size();
    TransformId Id = Strings.intern(T);
    if (Id == Fresh)
      noteKeys(Id, T.Entries.empty() ? AnyKey : T.Entries[0],
               T.Exits.empty() ? AnyKey : T.Exits[0]);
    return Id;
  }

  Interner<Transformer, TransformerHash> Strings;
  TransformId EpsilonId;
  std::unordered_map<std::uint64_t, TransformId> CompCache;
  UnaryMemo InvCache;
};

} // namespace

std::unique_ptr<Domain>
ctx::makeDomain(const Config &Cfg, std::vector<std::uint32_t> ClassOfHeap) {
  if (Cfg.Abs == Abstraction::ContextString)
    return std::make_unique<CtxtStringDomain>(Cfg, std::move(ClassOfHeap));
  return std::make_unique<TransformerDomain>(Cfg, std::move(ClassOfHeap));
}
