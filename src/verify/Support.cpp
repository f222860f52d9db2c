//===- verify/Support.cpp - Derivation-support certification --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The dual of closure: closure proves nothing derivable is missing; this
// pass proves everything present is justified. It replays the recorded
// provenance graph as a certificate — every node must name a concrete
// rule instance whose derived premises are recorded (and well-founded:
// premise node ids strictly precede the conclusion's, so certificates
// cannot be circular), whose input-fact premises exist in the FactDB, and
// whose conclusion, recomputed through the domain operations, reproduces
// the stored transformation id exactly. The converse direction requires
// every relation tuple to carry such a certificate (skipped only when the
// recorder hit its edge cap and marked itself truncated).
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleTable.h"
#include "ctx/CutShortcut.h"
#include "verify/Internal.h"
#include "verify/Verify.h"

#include <algorithm>

using namespace ctp;
using namespace ctp::analysis;
using namespace ctp::verify;
using namespace ctp::verify::detail;
using ctx::CtxtVec;
using ctx::TransformId;
using facts::FactDB;

namespace {

constexpr std::uint32_t Invalid = ProvenanceGraph::InvalidNode;

class SupportChecker {
public:
  SupportChecker(const FactDB &DB, Results &R, const InputIndices &In,
                 const DerivedSets &Sets, std::string &CE)
      : DB(DB), R(R), G(*R.Prov), In(In), Sets(Sets),
        M(R.Config.MethodDepth), H(R.Config.HeapDepth), CE(CE) {
    // SHORTCUT certificates ground in the cut plan; recompute it from
    // the inputs. For any other mode the plan stays empty, so a stray
    // Shortcut node in the graph fails its grounding check below.
    if (R.Config.SolveMode == ctx::Mode::CutShortcut)
      Plan = ctx::buildCutShortcutPlan(DB);
  }

  bool run() {
    for (std::uint32_t N = 0; N < G.size(); ++N)
      if (!checkNode(N))
        return false;
    if (!G.truncated())
      return checkCoverage();
    return true;
  }

private:
  bool fail(std::uint32_t N, const std::string &Why) {
    CE = "node " + std::to_string(N) + " " +
         renderFact(DB, R, G.relOf(N), G.factOf(N)) + " [" +
         ruleName(G.edgeOf(N).Rule) + "]: " + Why;
    return false;
  }

  /// Premise \p P of node \p N must be recorded, well-founded, and in
  /// relation \p Rel; its key lands in \p K.
  bool premise(std::uint32_t N, std::uint32_t P, ProvRel Rel, FactKey &K) {
    if (P == Invalid)
      return fail(N, "missing premise node");
    if (P >= N)
      return fail(N, "premise node " + std::to_string(P) +
                         " is not well-founded");
    if (G.relOf(P) != Rel)
      return fail(N, std::string("premise node is in relation ") +
                         relName(G.relOf(P)) + ", expected " + relName(Rel));
    K = G.factOf(P);
    return true;
  }

  bool expectT(std::uint32_t N, std::optional<TransformId> Got,
               TransformId Want) {
    if (!Got)
      return fail(N, "recomputed transformation is bottom");
    if (*Got != Want)
      return fail(N, "recomputed transformation " + R.Dom->toString(*Got) +
                         " differs from recorded " + R.Dom->toString(Want));
    return true;
  }

  bool checkNode(std::uint32_t N) {
    const ProvRel Rel = G.relOf(N);
    const FactKey &K = G.factOf(N);
    const ProvenanceGraph::Edge &E = G.edgeOf(N);

    const RuleDesc *Desc = ruleDesc(E.Rule);
    if (!Desc)
      return fail(N, "unknown rule");
    if (Rel != Desc->Conclusion)
      return fail(N, std::string("rule concludes into ") +
                         relName(Desc->Conclusion) + ", node is in " +
                         relName(Rel));
    if (Desc->Arity == RuleArity::Axiom && E.Prem0 != Invalid)
      return fail(N, "axiom with a premise");
    if (Desc->Arity != RuleArity::Two && E.Prem1 != Invalid)
      return fail(N, "unary rule with a second premise");

    // The recorded fact must still be in its relation — a tuple removed
    // or mutated after the fact leaves a dangling certificate here.
    bool Present = false;
    switch (Rel) {
    case ProvRel::Pts:
      Present = Sets.PtsSet.count(K) != 0;
      break;
    case ProvRel::Hpts:
      Present = Sets.HptsSet.count(K) != 0;
      break;
    case ProvRel::Hload:
      Present = Sets.HloadSet.count(K) != 0;
      break;
    case ProvRel::Call:
      Present = Sets.CallSet.count(K) != 0;
      break;
    case ProvRel::Reach:
      Present = Sets.ReachSet.count(K) != 0;
      break;
    case ProvRel::Gpts:
      Present = Sets.GptsSet.count(K) != 0;
      break;
    }
    if (!Present)
      return fail(N, "recorded fact is absent from its relation");

    switch (E.Rule) {
    case ProvRule::Entry: {
      if (std::find(DB.EntryMethods.begin(), DB.EntryMethods.end(), E.Aux) ==
          DB.EntryMethods.end())
        return fail(N, "method is not an entry method");
      CtxtVec Entry;
      Entry.push_back(ctx::EntryElem);
      std::uint32_t CtxId = R.ReachCtxts->intern(Entry.takePrefix(M));
      if (K[0] != E.Aux || K[1] != CtxId)
        return fail(N, "conclusion is not the entry axiom");
      return true;
    }

    case ProvRule::Assign: {
      FactKey P;
      if (!premise(N, E.Prem0, ProvRel::Pts, P))
        return false;
      if (E.Aux != P[0])
        return fail(N, "aux variable differs from premise variable");
      const auto &Tos = In.AssignFrom[P[0]];
      if (std::find(Tos.begin(), Tos.end(), K[0]) == Tos.end())
        return fail(N, "no assign input fact grounds the edge");
      if (K[1] != P[1] || K[2] != P[2])
        return fail(N, "conclusion does not copy the premise");
      return true;
    }

    case ProvRule::Cast: {
      FactKey P;
      if (!premise(N, E.Prem0, ProvRel::Pts, P))
        return false;
      if (E.Aux != P[0])
        return fail(N, "aux variable differs from premise variable");
      bool Grounded = false;
      for (const auto &[Y, T] : In.CastByFrom[P[0]])
        Grounded |= Y == K[0] && In.isSubtype(In.HeapTypeOf[P[1]], T);
      if (!Grounded)
        return fail(N, "no admissible cast input fact grounds the edge");
      if (K[1] != P[1] || K[2] != P[2])
        return fail(N, "conclusion does not copy the premise");
      return true;
    }

    case ProvRule::Load: {
      FactKey P;
      if (!premise(N, E.Prem0, ProvRel::Pts, P))
        return false;
      if (E.Aux != P[0])
        return fail(N, "aux variable differs from premise base variable");
      bool Grounded = false;
      for (const auto &[Field, To] : In.LoadByBase[P[0]])
        Grounded |= Field == K[1] && To == K[2];
      if (!Grounded)
        return fail(N, "no load input fact grounds the edge");
      if (K[0] != P[1] || K[3] != P[2])
        return fail(N, "conclusion does not carry the premise heap");
      return true;
    }

    case ProvRule::Store: {
      FactKey PV, PB; // value pts(X,H,B), base pts(Base,G,C)
      if (!premise(N, E.Prem0, ProvRel::Pts, PV) ||
          !premise(N, E.Prem1, ProvRel::Pts, PB))
        return false;
      if (E.Aux != PV[0])
        return fail(N, "aux variable differs from the value variable");
      bool Grounded = false;
      for (const auto &[Field, Base] : In.StoreByValue[PV[0]])
        Grounded |= Field == K[1] && Base == PB[0];
      if (!Grounded)
        return fail(N, "no store input fact grounds the edge");
      if (K[0] != PB[1] || K[2] != PV[1])
        return fail(N, "conclusion heaps do not match the premises");
      return expectT(N, R.Dom->comp(PV[2], R.Dom->inv(PB[2]), H, H), K[3]);
    }

    case ProvRule::Param: {
      FactKey P, C; // pts(Z,H,B), call(I,P,C)
      if (!premise(N, E.Prem0, ProvRel::Pts, P) ||
          !premise(N, E.Prem1, ProvRel::Call, C))
        return false;
      if (E.Aux != C[0])
        return fail(N, "aux invocation differs from the call premise");
      bool Grounded = false;
      for (const auto &[Invoke, Ord] : In.ActualByVar[P[0]])
        if (Invoke == C[0])
          if (auto It = In.FormalOf.find(pairKey(C[1], Ord));
              It != In.FormalOf.end())
            Grounded |= It->second == K[0];
      if (!Grounded)
        return fail(N, "no actual/formal input facts ground the edge");
      if (K[1] != P[1])
        return fail(N, "conclusion heap does not match the premise");
      return expectT(N, R.Dom->comp(P[2], C[2], H, M), K[2]);
    }

    case ProvRule::Ret: {
      FactKey P, C;
      if (!premise(N, E.Prem0, ProvRel::Pts, P) ||
          !premise(N, E.Prem1, ProvRel::Call, C))
        return false;
      if (E.Aux != C[0])
        return fail(N, "aux invocation differs from the call premise");
      const auto &Ms = In.ReturnByVar[P[0]];
      if (std::find(Ms.begin(), Ms.end(), C[1]) == Ms.end())
        return fail(N, "no return input fact grounds the edge");
      const auto &Ys = In.AssignRetByInvoke[C[0]];
      if (std::find(Ys.begin(), Ys.end(), K[0]) == Ys.end())
        return fail(N, "no assign_return input fact grounds the edge");
      if (K[1] != P[1])
        return fail(N, "conclusion heap does not match the premise");
      return expectT(N, R.Dom->comp(P[2], R.Dom->inv(C[2]), H, M), K[2]);
    }

    case ProvRule::Shortcut: {
      FactKey P, C; // actual pts(Z,H,B), call(I,P,C)
      if (!premise(N, E.Prem0, ProvRel::Pts, P) ||
          !premise(N, E.Prem1, ProvRel::Call, C))
        return false;
      if (E.Aux != C[0])
        return fail(N, "aux invocation differs from the call premise");
      bool Grounded = false;
      for (const auto &[Invoke, Ord] : In.ActualByVar[P[0]])
        Grounded |= Invoke == C[0] && Plan.hasShortcut(C[1], Ord);
      if (!Grounded)
        return fail(N, "no actual/cut-plan entry grounds the edge");
      const auto &Ys = In.AssignRetByInvoke[C[0]];
      if (std::find(Ys.begin(), Ys.end(), K[0]) == Ys.end())
        return fail(N, "no assign_return input fact grounds the edge");
      if (K[1] != P[1])
        return fail(N, "conclusion heap does not match the premise");
      auto Mid = R.Dom->comp(P[2], C[2], H, M);
      if (!Mid)
        return fail(N, "recomputed transformation is bottom");
      return expectT(N, R.Dom->comp(*Mid, R.Dom->inv(C[2]), H, M), K[2]);
    }

    case ProvRule::Throw: {
      FactKey P, C;
      if (!premise(N, E.Prem0, ProvRel::Pts, P) ||
          !premise(N, E.Prem1, ProvRel::Call, C))
        return false;
      if (E.Aux != C[0])
        return fail(N, "aux invocation differs from the call premise");
      const auto &Ms = In.ThrowByVar[P[0]];
      if (std::find(Ms.begin(), Ms.end(), C[1]) == Ms.end())
        return fail(N, "no throw input fact grounds the edge");
      const auto &Ys = In.CatchByInvoke[C[0]];
      if (std::find(Ys.begin(), Ys.end(), K[0]) == Ys.end())
        return fail(N, "no catch input fact grounds the edge");
      if (K[1] != P[1])
        return fail(N, "conclusion heap does not match the premise");
      return expectT(N, R.Dom->comp(P[2], R.Dom->inv(C[2]), H, M), K[2]);
    }

    case ProvRule::GStore: {
      FactKey P;
      if (!premise(N, E.Prem0, ProvRel::Pts, P))
        return false;
      if (E.Aux != P[0])
        return fail(N, "aux variable differs from premise variable");
      const auto &Gs = In.GlobalStoreByValue[P[0]];
      if (std::find(Gs.begin(), Gs.end(), K[0]) == Gs.end())
        return fail(N, "no global_store input fact grounds the edge");
      if (K[1] != P[1])
        return fail(N, "conclusion heap does not match the premise");
      return expectT(N, R.Dom->globalize(P[2]), K[2]);
    }

    case ProvRule::VirtCall: {
      FactKey P;
      if (!premise(N, E.Prem0, ProvRel::Pts, P))
        return false;
      if (E.Aux != K[0])
        return fail(N, "aux invocation differs from the conclusion");
      bool Grounded = false;
      for (const auto &[Invoke, Sig] : In.VirtByReceiver[P[0]])
        if (Invoke == K[0])
          if (auto It = In.Dispatch.find(pairKey(In.HeapTypeOf[P[1]], Sig));
              It != In.Dispatch.end())
            Grounded |= It->second == K[1];
      if (!Grounded)
        return fail(N, "dispatch does not reach the concluded method");
      return expectT(N, R.Dom->mergeVirtual(P[1], K[0], P[2]), K[2]);
    }

    case ProvRule::VirtThis: {
      FactKey P, C;
      if (!premise(N, E.Prem0, ProvRel::Pts, P) ||
          !premise(N, E.Prem1, ProvRel::Call, C))
        return false;
      if (E.Aux != C[0])
        return fail(N, "aux invocation differs from the call premise");
      bool Grounded = false;
      for (const auto &[Invoke, Sig] : In.VirtByReceiver[P[0]])
        if (Invoke == C[0])
          if (auto It = In.Dispatch.find(pairKey(In.HeapTypeOf[P[1]], Sig));
              It != In.Dispatch.end())
            Grounded |= It->second == C[1];
      if (!Grounded)
        return fail(N, "dispatch does not reach the call premise's method");
      if (R.Dom->mergeVirtual(P[1], C[0], P[2]) != C[2])
        return fail(N, "call premise transformation is not the merge");
      if (In.ThisOf[C[1]] != K[0])
        return fail(N, "conclusion variable is not the callee's this");
      if (K[1] != P[1])
        return fail(N, "conclusion heap does not match the premise");
      return expectT(N, R.Dom->comp(P[2], C[2], H, M), K[2]);
    }

    case ProvRule::Ind: {
      FactKey P, L; // hpts(G,Fl,H,B), hload(G,Fl,Y,C)
      if (!premise(N, E.Prem0, ProvRel::Hpts, P) ||
          !premise(N, E.Prem1, ProvRel::Hload, L))
        return false;
      if (P[0] != L[0] || P[1] != L[1])
        return fail(N, "premises join on different base/field");
      if (K[0] != L[2] || K[1] != P[2])
        return fail(N, "conclusion does not match the premises");
      return expectT(N, R.Dom->comp(P[3], L[3], H, M), K[2]);
    }

    case ProvRule::Reach: {
      FactKey C;
      if (!premise(N, E.Prem0, ProvRel::Call, C))
        return false;
      if (E.Aux != C[0])
        return fail(N, "aux invocation differs from the call premise");
      if (K[0] != C[1])
        return fail(N, "concluded method differs from the callee");
      std::uint32_t CtxId = R.ReachCtxts->intern(R.Dom->target(C[2]));
      if (K[1] != CtxId)
        return fail(N, "concluded context is not the call target");
      return true;
    }

    case ProvRule::GLoad: {
      FactKey P, Rh; // gpts(G,H,A), reach(P,Mx)
      if (!premise(N, E.Prem0, ProvRel::Gpts, P) ||
          !premise(N, E.Prem1, ProvRel::Reach, Rh))
        return false;
      if (E.Aux != P[0])
        return fail(N, "aux global differs from the gpts premise");
      bool Grounded = false;
      for (const auto &[To, InMethod] : In.GlobalLoadByGlobal[P[0]])
        Grounded |= To == K[0] && InMethod == Rh[0];
      if (!Grounded)
        return fail(N, "no global_load input fact grounds the edge");
      if (K[1] != P[1])
        return fail(N, "conclusion heap does not match the premise");
      return expectT(N, R.Dom->retarget(P[2], (*R.ReachCtxts)[Rh[1]]), K[2]);
    }

    case ProvRule::New: {
      FactKey Rh;
      if (!premise(N, E.Prem0, ProvRel::Reach, Rh))
        return false;
      if (E.Aux != K[1])
        return fail(N, "aux heap differs from the conclusion");
      bool Grounded = false;
      for (const auto &[Heap, To] : In.AssignNewByMethod[Rh[0]])
        Grounded |= Heap == K[1] && To == K[0];
      if (!Grounded)
        return fail(N, "no assign_new input fact grounds the edge");
      return expectT(N, R.Dom->record((*R.ReachCtxts)[Rh[1]]), K[2]);
    }

    case ProvRule::Static: {
      FactKey Rh;
      if (!premise(N, E.Prem0, ProvRel::Reach, Rh))
        return false;
      if (E.Aux != K[0])
        return fail(N, "aux invocation differs from the conclusion");
      bool Grounded = false;
      for (const auto &[Invoke, Target] : In.StaticByMethod[Rh[0]])
        Grounded |= Invoke == K[0] && Target == K[1];
      if (!Grounded)
        return fail(N, "no static_invoke input fact grounds the edge");
      return expectT(N, R.Dom->mergeStatic(K[0], (*R.ReachCtxts)[Rh[1]]),
                     K[2]);
    }
    }
    return fail(N, "unknown rule");
  }

  /// Every tuple must carry a certificate (the recorder notes each tuple
  /// right at insertion, so short of truncation nothing may be missing).
  bool checkCoverage() {
    auto Uncovered = [&](ProvRel Rel, const FactKey &K) {
      CE = relName(Rel) + std::string(" tuple ") +
           renderFact(DB, R, Rel, K) + " has no recorded derivation";
      return false;
    };
    for (const PtsFact &F : R.Pts)
      if (G.lookup(ProvRel::Pts, keyOf(F)) == Invalid)
        return Uncovered(ProvRel::Pts, keyOf(F));
    for (const HptsFact &F : R.Hpts)
      if (G.lookup(ProvRel::Hpts, keyOf(F)) == Invalid)
        return Uncovered(ProvRel::Hpts, keyOf(F));
    for (const HloadFact &F : R.Hload)
      if (G.lookup(ProvRel::Hload, keyOf(F)) == Invalid)
        return Uncovered(ProvRel::Hload, keyOf(F));
    for (const CallFact &F : R.Call)
      if (G.lookup(ProvRel::Call, keyOf(F)) == Invalid)
        return Uncovered(ProvRel::Call, keyOf(F));
    for (const ReachFact &F : R.Reach)
      if (G.lookup(ProvRel::Reach, keyOf(F)) == Invalid)
        return Uncovered(ProvRel::Reach, keyOf(F));
    for (const GptsFact &F : R.Gpts)
      if (G.lookup(ProvRel::Gpts, keyOf(F)) == Invalid)
        return Uncovered(ProvRel::Gpts, keyOf(F));
    return true;
  }

  const FactDB &DB;
  Results &R;
  const ProvenanceGraph &G;
  const InputIndices &In;
  const DerivedSets &Sets;
  ctx::CutShortcutPlan Plan;
  unsigned M, H;
  std::string &CE;
};

} // namespace

bool detail::supportReady(const Results &R, std::string &Counterexample) {
  if (!R.Prov) {
    Counterexample = "result carries no provenance graph";
    return false;
  }
  if (!R.Dom || !R.ReachCtxts) {
    Counterexample = "result carries no transformation domain";
    return false;
  }
  return true;
}

bool detail::supportOver(const FactDB &DB, Results &R,
                         const InputIndices &In, const DerivedSets &Sets,
                         std::string &Counterexample) {
  return SupportChecker(DB, R, In, Sets, Counterexample).run();
}

bool verify::checkSupport(const FactDB &DB, Results &R,
                          std::string &Counterexample) {
  if (!supportReady(R, Counterexample))
    return false;
  return supportOver(DB, R, InputIndices(DB), DerivedSets(R),
                     Counterexample);
}
