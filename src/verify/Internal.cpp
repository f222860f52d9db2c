//===- verify/Internal.cpp - Shared verifier machinery --------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "verify/Internal.h"

#include "support/Interner.h"

using namespace ctp;
using namespace ctp::analysis;
using namespace ctp::verify::detail;
using facts::FactDB;

InputIndices::InputIndices(const FactDB &DB) {
  AssignFrom.resize(DB.numVars());
  for (const auto &F : DB.Assigns)
    AssignFrom[F.From].push_back(F.To);

  LoadByBase.resize(DB.numVars());
  for (const auto &F : DB.Loads)
    LoadByBase[F.Base].push_back({F.Field, F.To});

  StoreByValue.resize(DB.numVars());
  for (const auto &F : DB.Stores)
    StoreByValue[F.From].push_back({F.Field, F.Base});

  ActualByVar.resize(DB.numVars());
  for (const auto &F : DB.Actuals)
    ActualByVar[F.Var].push_back({F.Invoke, F.Ordinal});

  for (const auto &F : DB.Formals)
    FormalOf.emplace(pairKey(F.Method, F.Ordinal), F.Var);

  ReturnByVar.resize(DB.numVars());
  for (const auto &F : DB.Returns)
    ReturnByVar[F.Var].push_back(F.Method);

  AssignRetByInvoke.resize(DB.numInvokes());
  for (const auto &F : DB.AssignReturns)
    AssignRetByInvoke[F.Invoke].push_back(F.To);

  VirtByReceiver.resize(DB.numVars());
  for (const auto &F : DB.VirtualInvokes)
    VirtByReceiver[F.Receiver].push_back({F.Invoke, F.Sig});

  HeapTypeOf.assign(DB.numHeaps(), facts::InvalidId);
  for (const auto &F : DB.HeapTypes)
    HeapTypeOf[F.Heap] = F.Type;

  for (const auto &F : DB.Implements)
    Dispatch.emplace(pairKey(F.Type, F.Sig), F.Method);

  ThisOf.assign(DB.numMethods(), facts::InvalidId);
  for (const auto &F : DB.ThisVars)
    ThisOf[F.Method] = F.Var;

  StaticByMethod.resize(DB.numMethods());
  for (const auto &F : DB.StaticInvokes)
    StaticByMethod[F.InMethod].push_back({F.Invoke, F.Target});

  AssignNewByMethod.resize(DB.numMethods());
  for (const auto &F : DB.AssignNews)
    AssignNewByMethod[F.InMethod].push_back({F.Heap, F.To});

  GlobalStoreByValue.resize(DB.numVars());
  for (const auto &F : DB.GlobalStores)
    GlobalStoreByValue[F.From].push_back(F.Global);
  GlobalLoadByGlobal.resize(DB.numGlobals());
  for (const auto &F : DB.GlobalLoads)
    GlobalLoadByGlobal[F.Global].push_back({F.To, F.InMethod});

  ThrowByVar.resize(DB.numVars());
  for (const auto &F : DB.Throws)
    ThrowByVar[F.Var].push_back(F.Method);
  CatchByInvoke.resize(DB.numInvokes());
  for (const auto &F : DB.Catches)
    CatchByInvoke[F.Invoke].push_back(F.To);

  CastByFrom.resize(DB.numVars());
  for (const auto &F : DB.Casts)
    CastByFrom[F.From].push_back({F.To, F.Type});
  for (const auto &F : DB.Subtypes)
    SubtypePairs.insert(pairKey(F.Sub, F.Super));
}

DerivedSets::DerivedSets(const Results &R) {
  for (const PtsFact &F : R.Pts)
    PtsSet.insert(keyOf(F));
  for (const HptsFact &F : R.Hpts)
    HptsSet.insert(keyOf(F));
  for (const HloadFact &F : R.Hload)
    HloadSet.insert(keyOf(F));
  for (const CallFact &F : R.Call)
    CallSet.insert(keyOf(F));
  for (const ReachFact &F : R.Reach)
    ReachSet.insert(keyOf(F));
  for (const GptsFact &F : R.Gpts)
    GptsSet.insert(keyOf(F));
}

DerivedView::DerivedView(const FactDB &DB, const Results &R)
    : DerivedSets(R) {
  constexpr std::uint32_t AnyKey = KeyedPartners::AnyKey;
  const std::size_t NumIds = R.Dom->size();
  LeftKeys.resize(NumIds);
  std::vector<std::uint32_t> RightKeys(NumIds);
  if (R.Dom->config().Abs == ctx::Abstraction::TransformerString) {
    for (ctx::TransformId T = 0; T < NumIds; ++T) {
      const ctx::Transformer &X = R.Dom->transformer(T);
      LeftKeys[T] = X.Entries.empty() ? AnyKey : X.Entries[0];
      RightKeys[T] = X.Exits.empty() ? AnyKey : X.Exits[0];
    }
  } else {
    Interner<ctx::CtxtVec, ctx::CtxtVecHash> Middles;
    for (ctx::TransformId T = 0; T < NumIds; ++T) {
      const ctx::CtxtPair &P = R.Dom->ctxtPair(T);
      LeftKeys[T] = Middles.intern(P.Out);
      RightKeys[T] = Middles.intern(P.In);
    }
  }

  PtsByVar = KeyedPartners(DB.numVars(), R.Pts, [&](const PtsFact &F) {
    return KeyedPartners::Row{F.Var, LeftKeys[F.T], F.Heap, F.T};
  });
  CallByInvoke = KeyedPartners(DB.numInvokes(), R.Call, [&](const CallFact &F) {
    return KeyedPartners::Row{F.Invoke, RightKeys[F.T], F.Method, F.T};
  });
  CallByCallee = KeyedPartners(DB.numMethods(), R.Call, [&](const CallFact &F) {
    return KeyedPartners::Row{F.Method, LeftKeys[F.T], F.Invoke, F.T};
  });
  for (const HloadFact &F : R.Hload)
    HloadSlotOf.try_emplace(pairKey(F.Base, F.Field),
                            static_cast<std::uint32_t>(HloadSlotOf.size()));
  HloadByBaseField =
      KeyedPartners(HloadSlotOf.size(), R.Hload, [&](const HloadFact &F) {
        return KeyedPartners::Row{hloadSlot(F.Base, F.Field),
                                  RightKeys[F.T], F.Var, F.T};
      });

  ReachByMethod.resize(DB.numMethods());
  for (const ReachFact &F : R.Reach)
    ReachByMethod[F.Method].push_back(F.CtxtId);
}

std::string verify::detail::entityName(const std::vector<std::string> &Names,
                                       std::uint32_t Id, const char *Kind) {
  if (Id < Names.size() && !Names[Id].empty())
    return Names[Id];
  return std::string(Kind) + "#" + std::to_string(Id);
}

namespace {

std::string tstr(const Results &R, ctx::TransformId T) {
  return R.Dom ? R.Dom->toString(T) : "T#" + std::to_string(T);
}

std::string cstr(const Results &R, std::uint32_t CtxtId) {
  if (R.ReachCtxts && CtxtId < R.ReachCtxts->size())
    return ctx::printCtxtVec((*R.ReachCtxts)[CtxtId]);
  return "C#" + std::to_string(CtxtId);
}

} // namespace

std::string verify::detail::renderPts(const FactDB &DB, const Results &R,
                                      const PtsFact &F) {
  return "pts(" + entityName(DB.VarNames, F.Var, "var") + ", " +
         entityName(DB.HeapNames, F.Heap, "heap") + ") [" + tstr(R, F.T) +
         "]";
}

std::string verify::detail::renderHpts(const FactDB &DB, const Results &R,
                                       const HptsFact &F) {
  return "hpts(" + entityName(DB.HeapNames, F.Base, "heap") + "." +
         entityName(DB.FieldNames, F.Field, "field") + ", " +
         entityName(DB.HeapNames, F.Heap, "heap") + ") [" + tstr(R, F.T) +
         "]";
}

std::string verify::detail::renderHload(const FactDB &DB, const Results &R,
                                        const HloadFact &F) {
  return "hload(" + entityName(DB.HeapNames, F.Base, "heap") + "." +
         entityName(DB.FieldNames, F.Field, "field") + ", " +
         entityName(DB.VarNames, F.Var, "var") + ") [" + tstr(R, F.T) + "]";
}

std::string verify::detail::renderCall(const FactDB &DB, const Results &R,
                                       const CallFact &F) {
  return "call(" + entityName(DB.InvokeNames, F.Invoke, "invoke") + ", " +
         entityName(DB.MethodNames, F.Method, "method") + ") [" +
         tstr(R, F.T) + "]";
}

std::string verify::detail::renderReach(const FactDB &DB, const Results &R,
                                        const ReachFact &F) {
  return "reach(" + entityName(DB.MethodNames, F.Method, "method") + ") @ " +
         cstr(R, F.CtxtId);
}

std::string verify::detail::renderGpts(const FactDB &DB, const Results &R,
                                       const GptsFact &F) {
  return "gpts(" + entityName(DB.GlobalNames, F.Global, "global") + ", " +
         entityName(DB.HeapNames, F.Heap, "heap") + ") [" + tstr(R, F.T) +
         "]";
}

std::string verify::detail::renderFact(const FactDB &DB, const Results &R,
                                       ProvRel Rel, const FactKey &K) {
  switch (Rel) {
  case ProvRel::Pts:
    return renderPts(DB, R, PtsFact{K[0], K[1], K[2]});
  case ProvRel::Hpts:
    return renderHpts(DB, R, HptsFact{K[0], K[1], K[2], K[3]});
  case ProvRel::Hload:
    return renderHload(DB, R, HloadFact{K[0], K[1], K[2], K[3]});
  case ProvRel::Call:
    return renderCall(DB, R, CallFact{K[0], K[1], K[2]});
  case ProvRel::Reach:
    return renderReach(DB, R, ReachFact{K[0], K[1]});
  case ProvRel::Gpts:
    return renderGpts(DB, R, GptsFact{K[0], K[1], K[2]});
  }
  return "?";
}
