//===- verify/Closure.cpp - Fixpoint closure certification ----------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Naive rule re-application over the completed relations: for every rule
// of Figure 3, enumerate every instance whose premises hold in the solved
// result and require the conclusion to be present too. No worklists, no
// deltas — each two-premise rule is driven from one side with the other
// side joined through a complete, key-filtered index (DerivedView), which
// enumerates every instance a fixpoint must have closed: the keys only
// skip partners whose composition is ⊥. The first derivable-but-absent
// tuple is the counterexample.
//
// The domain operations (comp, inv, record, merge, ...) are re-invoked
// here; because transformations are content-addressed (interning assigns
// one id per distinct value within a run), a recomputed conclusion's id
// matches the stored id exactly when the tuple was genuinely derived.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleTable.h"
#include "ctx/CutShortcut.h"
#include "ctx/TransformerString.h"
#include "support/Budget.h"
#include "verify/Internal.h"
#include "verify/Verify.h"

using namespace ctp;
using namespace ctp::analysis;
using namespace ctp::verify;
using namespace ctp::verify::detail;
using ctx::CtxtVec;
using ctx::TransformId;
using facts::FactDB;

namespace {

/// One closure pass. Holds the views plus the counterexample slot; each
/// rule method returns false on the first missing conclusion.
class ClosureChecker {
public:
  ClosureChecker(const FactDB &DB, Results &R, const InputIndices &In,
                 const DerivedView &View, const ClosureOptions &Opts,
                 std::string &CE)
      : DB(DB), R(R), In(In), View(View),
        Modulo(Opts.ModuloSubsumption &&
               R.Config.Abs == ctx::Abstraction::TransformerString),
        Cut(R.Config.SolveMode == ctx::Mode::CutShortcut),
        M(R.Config.MethodDepth), H(R.Config.HeapDepth), CE(CE) {
    // Cut-shortcut replaces RET flow out of cut methods with the
    // per-call-site SHORTCUT rule; the closure notion changes with it,
    // so the checker re-derives the plan independently of the solver.
    if (Cut)
      Plan = ctx::buildCutShortcutPlan(DB);
  }

  bool run() {
    // Rule order matches the canonical table; the first failure reported
    // is therefore deterministic for a given result.
    for (std::uint32_t E : DB.EntryMethods)
      if (!checkEntry(E))
        return false;
    for (const PtsFact &F : R.Pts)
      if (!fromPts(F))
        return false;
    for (const HptsFact &F : R.Hpts)
      if (!fromHpts(F))
        return false;
    for (const CallFact &F : R.Call)
      if (!fromCall(F))
        return false;
    for (const GptsFact &F : R.Gpts)
      if (!fromGpts(F))
        return false;
    for (const ReachFact &F : R.Reach)
      if (!fromReach(F))
        return false;
    return true;
  }

  const ClosureStats &stats() const { return Counts; }

private:
  std::optional<TransformId> comp(TransformId A, TransformId B,
                                  unsigned MaxExits, unsigned MaxEntries) {
    ++Counts.CompAttempts;
    std::optional<TransformId> C = R.Dom->comp(A, B, MaxExits, MaxEntries);
    if (!C)
      ++Counts.CompBottoms;
    return C;
  }

  bool missing(ProvRule Rule, const std::string &Fact) {
    CE = std::string(ruleName(Rule)) + " can still derive " + Fact;
    return false;
  }

  bool hasPts(std::uint32_t Var, std::uint32_t Heap, TransformId T) {
    if (View.PtsSet.count(keyOf(PtsFact{Var, Heap, T})))
      return true;
    if (!Modulo)
      return false;
    // Collapse-mode closure: a retired conclusion is acceptable when a
    // live fact for the same (variable, heap) pair subsumes it. The walk
    // over all of Var's facts stops at the first such fact.
    const ctx::Transformer &Want = R.Dom->transformer(T);
    return !View.PtsByVar.probe(
        Var, KeyedPartners::AnyKey, [&](std::uint32_t H2, TransformId T2) {
          return H2 != Heap ||
                 (T2 != T && !ctx::subsumes(R.Dom->transformer(T2), Want));
        });
  }

  bool expectPts(ProvRule Rule, std::uint32_t Var, std::uint32_t Heap,
                 TransformId T) {
    return hasPts(Var, Heap, T) ||
           missing(Rule, renderPts(DB, R, PtsFact{Var, Heap, T}));
  }

  bool checkEntry(std::uint32_t E) {
    CtxtVec Entry;
    Entry.push_back(ctx::EntryElem);
    CtxtVec Ctx = Entry.takePrefix(M);
    ReachFact F{E, R.ReachCtxts->intern(Ctx)};
    return View.ReachSet.count(keyOf(F)) ||
           missing(ProvRule::Entry, renderReach(DB, R, F));
  }

  bool fromPts(const PtsFact &F) {
    // Every join below composes F.T on the left, so it probes with F.T's
    // left key.
    const std::uint32_t Key = View.leftKey(F.T);

    // [ASSIGN] pts(Z,H,A), assign(Z,Y) |- pts(Y,H,A).
    for (std::uint32_t Y : In.AssignFrom[F.Var])
      if (!expectPts(ProvRule::Assign, Y, F.Heap, F.T))
        return false;

    // [CAST] filtered assignment.
    for (const auto &[Y, T] : In.CastByFrom[F.Var])
      if (In.isSubtype(In.HeapTypeOf[F.Heap], T))
        if (!expectPts(ProvRule::Cast, Y, F.Heap, F.T))
          return false;

    // [LOAD] pts(Y,G,A), load(Y,F,Z) |- hload(G,F,Z,A).
    for (const auto &[Field, To] : In.LoadByBase[F.Var]) {
      HloadFact C{F.Heap, Field, To, F.T};
      if (!View.HloadSet.count(keyOf(C)))
        return missing(ProvRule::Load, renderHload(DB, R, C));
    }

    // [STORE] pts(X,H,B), store(X,Fl,Z), pts(Z,G,C)
    //         |- hpts(G,Fl,H, B ; inv(C)). Driven from the value side;
    // the base side joins through the complete pts index.
    for (const auto &[Field, Base] : In.StoreByValue[F.Var])
      if (!View.PtsByVar.probe(Base, Key, [&](std::uint32_t G, TransformId C) {
            auto A = comp(F.T, R.Dom->inv(C), H, H);
            if (!A)
              return true;
            HptsFact Cn{G, Field, F.Heap, *A};
            return View.HptsSet.count(keyOf(Cn)) ||
                   missing(ProvRule::Store, renderHpts(DB, R, Cn));
          }))
        return false;

    // [PARAM] pts(Z,H,B), actual(Z,I,O), call(I,P,C), formal(Y,P,O)
    //         |- pts(Y,H, B ; C).
    for (const auto &[Invoke, Ord] : In.ActualByVar[F.Var])
      if (!View.CallByInvoke.probe(
              Invoke, Key, [&](std::uint32_t Callee, TransformId C) {
                auto It = In.FormalOf.find(pairKey(Callee, Ord));
                if (It == In.FormalOf.end())
                  return true;
                auto A = comp(F.T, C, H, M);
                return !A || expectPts(ProvRule::Param, It->second, F.Heap, *A);
              }))
        return false;

    // [RET] pts(Z,H,B), return(Z,P), call(I,P,C), assign_return(I,Y)
    //       |- pts(Y,H, B ; inv(C)). Cut-shortcut mode elides the
    // instance for cut (P,Z) pairs — SHORTCUT below carries that flow
    // per call site instead (its deliberate precision win over the
    // invocation-mixing RET).
    for (std::uint32_t P : In.ReturnByVar[F.Var]) {
      if (Cut && Plan.isCutReturn(P, F.Var))
        continue;
      if (!joinReturn(ProvRule::Ret, F, Key, P, In.AssignRetByInvoke))
        return false;
    }

    // [SHORTCUT] pts(Z,H,B), actual(Z,I,O), call(I,P,C), plan(P,O),
    //            assign_return(I,Y) |- pts(Y,H, (B ; C) ; inv(C)).
    if (Cut)
      for (const auto &[Invoke, Ord] : In.ActualByVar[F.Var])
        if (!View.CallByInvoke.probe(
                Invoke, Key, [&](std::uint32_t Callee, TransformId C) {
                  if (!Plan.hasShortcut(Callee, Ord))
                    return true;
                  auto Mid = comp(F.T, C, H, M);
                  if (!Mid)
                    return true;
                  auto A = comp(*Mid, R.Dom->inv(C), H, M);
                  if (!A)
                    return true;
                  for (std::uint32_t Y : In.AssignRetByInvoke[Invoke])
                    if (!expectPts(ProvRule::Shortcut, Y, F.Heap, *A))
                      return false;
                  return true;
                }))
          return false;

    // [THROW] the exceptional return path.
    for (std::uint32_t P : In.ThrowByVar[F.Var])
      if (!joinReturn(ProvRule::Throw, F, Key, P, In.CatchByInvoke))
        return false;

    // [GSTORE] pts(X,H,B), global_store(X,G) |- gpts(G,H, globalize(B)).
    if (!In.GlobalStoreByValue[F.Var].empty()) {
      TransformId GT = R.Dom->globalize(F.T);
      for (std::uint32_t G : In.GlobalStoreByValue[F.Var]) {
        GptsFact Cn{G, F.Heap, GT};
        if (!View.GptsSet.count(keyOf(Cn)))
          return missing(ProvRule::GStore, renderGpts(DB, R, Cn));
      }
    }

    // [VIRT] dispatch on the receiver's heap type: call edge + this-var
    // binding.
    if (!In.VirtByReceiver[F.Var].empty()) {
      std::uint32_t HeapType = In.HeapTypeOf[F.Heap];
      for (const auto &[Invoke, Sig] : In.VirtByReceiver[F.Var]) {
        auto It = In.Dispatch.find(pairKey(HeapType, Sig));
        if (It == In.Dispatch.end())
          continue; // No implementation: dead dispatch.
        std::uint32_t Q = It->second;
        TransformId C = R.Dom->mergeVirtual(F.Heap, Invoke, F.T);
        CallFact Cn{Invoke, Q, C};
        if (!View.CallSet.count(keyOf(Cn)))
          return missing(ProvRule::VirtCall, renderCall(DB, R, Cn));
        std::uint32_t ThisY = In.ThisOf[Q];
        if (ThisY == facts::InvalidId)
          continue; // Rejected by FactDB::validate; defensive here.
        if (auto A = comp(F.T, C, H, M))
          if (!expectPts(ProvRule::VirtThis, ThisY, F.Heap, *A))
            return false;
      }
    }
    return true;
  }

  /// The RET/THROW join: pts(Z,H,B) of a variable returned (thrown) by
  /// \p P meets every call(I,P,C) and flows, as B ; inv(C), into the
  /// variables \p ToOf[I] lists.
  bool joinReturn(ProvRule Rule, const PtsFact &F, std::uint32_t Key,
                  std::uint32_t P,
                  const std::vector<std::vector<std::uint32_t>> &ToOf) {
    return View.CallByCallee.probe(
        P, Key, [&](std::uint32_t Invoke, TransformId C) {
          auto A = comp(F.T, R.Dom->inv(C), H, M);
          if (A)
            for (std::uint32_t Y : ToOf[Invoke])
              if (!expectPts(Rule, Y, F.Heap, *A))
                return false;
          return true;
        });
  }

  bool fromHpts(const HptsFact &F) {
    // [IND] hpts(G,Fl,H,B), hload(G,Fl,Y,C) |- pts(Y,H, B ; C).
    return View.HloadByBaseField.probe(
        View.hloadSlot(F.Base, F.Field), View.leftKey(F.T),
        [&](std::uint32_t Y, TransformId C) {
          auto A = comp(F.T, C, H, M);
          return !A || expectPts(ProvRule::Ind, Y, F.Heap, *A);
        });
  }

  bool fromCall(const CallFact &F) {
    // [REACH] call(I,P,A) |- reach(P, target(A)). PARAM/RET/THROW need no
    // call-driven pass here: their pts-driven enumeration above already
    // joined against the complete call relation.
    CtxtVec Tgt = R.Dom->target(F.T);
    ReachFact Cn{F.Method, R.ReachCtxts->intern(Tgt)};
    return View.ReachSet.count(keyOf(Cn)) ||
           missing(ProvRule::Reach, renderReach(DB, R, Cn));
  }

  bool fromGpts(const GptsFact &F) {
    // [GLOAD] gpts(G,H,A), global_load(G,Z,P), reach(P,Mx)
    //         |- pts(Z,H, retarget(A,Mx)).
    for (const auto &[Z, P] : In.GlobalLoadByGlobal[F.Global])
      for (std::uint32_t CtxId : View.ReachByMethod[P]) {
        TransformId A = R.Dom->retarget(F.T, (*R.ReachCtxts)[CtxId]);
        if (!expectPts(ProvRule::GLoad, Z, F.Heap, A))
          return false;
      }
    return true;
  }

  bool fromReach(const ReachFact &F) {
    const CtxtVec &Ctx = (*R.ReachCtxts)[F.CtxtId];
    // [NEW] assign_new(H,Y,P), reach(P,Mx) |- pts(Y,H, record(Mx)).
    if (!In.AssignNewByMethod[F.Method].empty()) {
      TransformId A = R.Dom->record(Ctx);
      for (const auto &[Hp, Y] : In.AssignNewByMethod[F.Method])
        if (!expectPts(ProvRule::New, Y, Hp, A))
          return false;
    }
    // [STATIC] static_invoke(I,Q,P), reach(P,Mx)
    //          |- call(I,Q, merge_s(I,Mx)).
    for (const auto &[Invoke, Target] : In.StaticByMethod[F.Method]) {
      TransformId C = R.Dom->mergeStatic(Invoke, Ctx);
      CallFact Cn{Invoke, Target, C};
      if (!View.CallSet.count(keyOf(Cn)))
        return missing(ProvRule::Static, renderCall(DB, R, Cn));
    }
    return true;
  }

  const FactDB &DB;
  Results &R;
  const InputIndices &In;
  const DerivedView &View;
  bool Modulo;
  bool Cut;
  ctx::CutShortcutPlan Plan;
  unsigned M, H;
  ClosureStats Counts;
  std::string &CE;
};

} // namespace

bool detail::closureReady(const Results &R, std::string &Counterexample) {
  if (R.Stat.Term != TerminationReason::Converged) {
    Counterexample =
        std::string("run did not converge (termination: ") +
        terminationReasonName(R.Stat.Term) + "); closure is undefined";
    return false;
  }
  if (!R.Dom || !R.ReachCtxts) {
    Counterexample = "result carries no transformation domain";
    return false;
  }
  return true;
}

bool detail::closureOver(const FactDB &DB, Results &R,
                         const InputIndices &In, const DerivedView &View,
                         const ClosureOptions &Opts,
                         std::string &Counterexample) {
  ClosureChecker Checker(DB, R, In, View, Opts, Counterexample);
  const bool Closed = Checker.run();
  if (Opts.Stats)
    *Opts.Stats = Checker.stats();
  return Closed;
}

bool verify::checkClosure(const FactDB &DB, Results &R,
                          const ClosureOptions &Opts,
                          std::string &Counterexample) {
  if (!closureReady(R, Counterexample))
    return false;
  return closureOver(DB, R, InputIndices(DB), DerivedView(DB, R), Opts,
                     Counterexample);
}
