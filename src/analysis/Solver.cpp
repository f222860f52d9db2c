//===- analysis/Solver.cpp - Semi-naive pointer-analysis solver -----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"

#include "analysis/Incremental.h"
#include "analysis/JoinIndex.h"
#include "analysis/Provenance.h"
#include "analysis/Unify.h"
#include "ctx/CutShortcut.h"
#include "support/Stats.h"

#include <cassert>
#include <deque>
#include <unordered_map>
#include <unordered_set>

using namespace ctp;
using namespace ctp::analysis;
using ctx::CtxtVec;
using ctx::TransformId;
using facts::FactDB;

namespace {

std::uint64_t pairKey(std::uint32_t A, std::uint32_t B) {
  return (static_cast<std::uint64_t>(A) << 32) | B;
}

/// The solver state: input indices built once, derived relations with
/// their join indices, and FIFO worklists per derived relation.
class Solver {
public:
  Solver(const FactDB &DB, const ctx::Config &Cfg,
         const analysis::SolverOptions &Opts)
      : DB(DB), Cfg(Cfg), M(Cfg.MethodDepth), H(Cfg.HeapDepth),
        Collapse(Opts.CollapseSubsumedPts &&
                 Cfg.Abs == ctx::Abstraction::TransformerString),
        Meter(Opts.Budget), Ckpt(Opts.Checkpoint) {
    std::vector<std::uint32_t> ClassOf(DB.numHeaps());
    for (std::size_t Hp = 0; Hp < DB.numHeaps(); ++Hp)
      ClassOf[Hp] = DB.classOfHeap(static_cast<std::uint32_t>(Hp));
    Dom = ctx::makeDomain(Cfg, std::move(ClassOf));
    ReachCtxts =
        std::make_shared<Interner<CtxtVec, ctx::CtxtVecHash>>();
    if (Cfg.SolveMode == ctx::Mode::CutShortcut) {
      CutMode = true;
      CutPlan = ctx::buildCutShortcutPlan(DB);
    }
    buildInputIndices();
    ReachByMethod.resize(DB.numMethods());
    GptsByGlobal.resize(DB.numGlobals());
    if (Ckpt.enabled() || Opts.Resume) {
      Fingerprint = DB.fingerprint();
      LayoutHash = DB.layoutHash();
    }
    if (Opts.Provenance.Enabled)
      Prov = std::make_unique<ProvenanceGraph>(Opts.Provenance.MaxEdges);
  }

  /// Rebuilds the full solver state from \p S by replaying its relations
  /// in insertion order (no rule firing, no meter charges): dedup sets,
  /// join indices, worklists, and the collapse-mode live table fall out
  /// of the replay deterministically. \returns an empty string on
  /// success; on failure the solver must be discarded (partially
  /// restored) and the caller cold-starts a fresh one.
  std::string tryRestore(const analysis::SolverSnapshot &S) {
    if (S.BackendTag != analysis::SolverSnapshot::Backend::Native)
      return "snapshot was written by a different back-end";
    if (S.Collapse != Collapse)
      return "snapshot collapse mode differs from this run";
    if (S.Config.Abs != Cfg.Abs || S.Config.Flav != Cfg.Flav ||
        S.Config.MethodDepth != Cfg.MethodDepth ||
        S.Config.HeapDepth != Cfg.HeapDepth ||
        S.Config.SolveMode != Cfg.SolveMode)
      return "snapshot configuration differs from this run";
    if (S.Fingerprint != Fingerprint)
      return "snapshot fingerprint does not match the fact database";
    if (S.LayoutHash != LayoutHash)
      return "snapshot fact layout does not match the fact database";
    if (!Dom->importInterned(S.DomainWords))
      return "snapshot transformation domain is inconsistent";
    if (!analysis::decodeCtxtInterner(S.ReachCtxtWords, *ReachCtxts))
      return "snapshot reach-context table is inconsistent";

    const std::uint32_t NumT = static_cast<std::uint32_t>(Dom->size());
    const std::uint32_t NumCtxt = ReachCtxts->size();

    const std::vector<std::uint32_t> &PW = S.Pts.Words;
    for (std::size_t I = 0; I < PW.size(); I += 3) {
      PtsFact F{PW[I], PW[I + 1], PW[I + 2]};
      if (F.Var >= DB.numVars() || F.Heap >= DB.numHeaps() || F.T >= NumT)
        return "snapshot pts relation has out-of-range ids";
      if (!replay(F))
        return "snapshot pts relation has duplicate tuples or disagrees "
               "with its collapse state";
      if (I / 3 >= S.Pts.Head)
        PtsWork.push_back(F);
    }
    const std::vector<std::uint32_t> &SW = S.SubsumedWords;
    for (std::size_t I = 0; I < SW.size(); I += 3) {
      PtsFact F{SW[I], SW[I + 1], SW[I + 2]};
      if (F.Var >= DB.numVars() || F.Heap >= DB.numHeaps() || F.T >= NumT)
        return "snapshot subsumed-pts section has out-of-range ids";
      if (!PtsSet.insert(keyOf(F)).second)
        return "snapshot subsumed-pts section has duplicate tuples";
      if (Ckpt.enabled())
        SubsumedAtInsert.push_back(F);
    }
    const std::vector<std::uint32_t> &HW = S.Hpts.Words;
    for (std::size_t I = 0; I < HW.size(); I += 4) {
      HptsFact F{HW[I], HW[I + 1], HW[I + 2], HW[I + 3]};
      if (F.Base >= DB.numHeaps() || F.Field >= DB.numFields() ||
          F.Heap >= DB.numHeaps() || F.T >= NumT)
        return "snapshot hpts relation has out-of-range ids";
      if (!replay(F))
        return "snapshot hpts relation has duplicate tuples";
      if (I / 4 >= S.Hpts.Head)
        HptsWork.push_back(F);
    }
    const std::vector<std::uint32_t> &LW = S.Hload.Words;
    for (std::size_t I = 0; I < LW.size(); I += 4) {
      HloadFact F{LW[I], LW[I + 1], LW[I + 2], LW[I + 3]};
      if (F.Base >= DB.numHeaps() || F.Field >= DB.numFields() ||
          F.Var >= DB.numVars() || F.T >= NumT)
        return "snapshot hload relation has out-of-range ids";
      if (!replay(F))
        return "snapshot hload relation has duplicate tuples";
      if (I / 4 >= S.Hload.Head)
        HloadWork.push_back(F);
    }
    const std::vector<std::uint32_t> &CW = S.Call.Words;
    for (std::size_t I = 0; I < CW.size(); I += 3) {
      CallFact F{CW[I], CW[I + 1], CW[I + 2]};
      if (F.Invoke >= DB.numInvokes() || F.Method >= DB.numMethods() ||
          F.T >= NumT)
        return "snapshot call relation has out-of-range ids";
      if (!replay(F))
        return "snapshot call relation has duplicate tuples";
      if (I / 3 >= S.Call.Head)
        CallWork.push_back(F);
    }
    const std::vector<std::uint32_t> &RW = S.Reach.Words;
    for (std::size_t I = 0; I < RW.size(); I += 2) {
      ReachFact F{RW[I], RW[I + 1]};
      if (F.Method >= DB.numMethods() || F.CtxtId >= NumCtxt)
        return "snapshot reach relation has out-of-range ids";
      if (!replay(F))
        return "snapshot reach relation has duplicate tuples";
      if (I / 2 >= S.Reach.Head)
        ReachWork.push_back(F);
    }
    const std::vector<std::uint32_t> &GW = S.Gpts.Words;
    for (std::size_t I = 0; I < GW.size(); I += 3) {
      GptsFact F{GW[I], GW[I + 1], GW[I + 2]};
      if (F.Global >= DB.numGlobals() || F.Heap >= DB.numHeaps() ||
          F.T >= NumT)
        return "snapshot gpts relation has out-of-range ids";
      if (!replay(F))
        return "snapshot gpts relation has duplicate tuples";
      if (I / 3 >= S.Gpts.Head)
        GptsWork.push_back(F);
    }

    BaseWorkItems = static_cast<std::size_t>(S.WorkItems);
    BaseDerivations = S.Derivations;
    BaseTuples = S.Tuples;
    CollapsedPts = static_cast<std::size_t>(S.CollapsedPts);
    CkptLastDerivations = S.Derivations;
    Resumed = true;
    // Snapshots do not carry the derivation graph, so the replayed tuples
    // above have no nodes. A graph recording only post-resume derivations
    // would dangle on every premise that predates the snapshot; drop
    // provenance cleanly instead of keeping half of it.
    if (Prov) {
      Prov.reset();
      ProvDropped = "provenance dropped: run resumed from a checkpoint "
                    "snapshot (snapshots do not carry the derivation graph)";
    }
    return {};
  }

  /// Seeds this (fresh) solver with \p Prev — every tuple and its
  /// provenance node — before the narrow additions \p D, so run() only
  /// derives what the new rows can add. \returns an empty string when
  /// \p Prev can be continued; else the fallback reason — the solver is
  /// then partially mutated and must be discarded in favour of a cold one.
  std::string tryIncremental(const analysis::Results &Prev,
                             const analysis::InputDelta &D) {
    if (Prev.Stat.Term != TerminationReason::Converged)
      return "previous result is not a converged fixpoint";
    if (Collapse || Prev.Stat.CollapsedPts != 0)
      return "subsumption collapsing retires tuples outside the "
             "derivation graph";
    if (!Prev.Prov)
      return Prev.Stat.ProvenanceDropped.empty()
                 ? "previous result has no derivation provenance"
                 : Prev.Stat.ProvenanceDropped;
    if (Prev.Prov->truncated())
      return "previous derivation graph is truncated";
    if (!Prev.Dom || !Prev.ReachCtxts)
      return "previous result lacks its interned domain";
    if (Prev.Config.Abs != Cfg.Abs || Prev.Config.Flav != Cfg.Flav ||
        Prev.Config.MethodDepth != Cfg.MethodDepth ||
        Prev.Config.HeapDepth != Cfg.HeapDepth ||
        Prev.Config.SolveMode != Cfg.SolveMode)
      return "previous result was solved under a different configuration";
    if (Cfg.SolveMode != ctx::Mode::Contexts)
      return "contextless modes (cutshortcut, unify) re-solve from cold";
    if (!Prov)
      return "incremental solve requires provenance recording";
    if (Prev.Prov->size() != Prev.numTuples())
      return "derivation graph does not cover the previous relations";

    // Entities are append-only, so every previous id is valid in the new
    // database; importing the interners reproduces the previous
    // transformation/context ids exactly.
    {
      std::vector<std::uint32_t> W;
      Prev.Dom->exportInterned(W);
      if (!Dom->importInterned(W))
        return "transformation domain import failed";
      std::vector<std::uint32_t> CW;
      analysis::encodeCtxtInterner(*Prev.ReachCtxts, CW);
      if (!analysis::decodeCtxtInterner(CW, *ReachCtxts))
        return "reach-context table import failed";
    }
    // Additions keep every previous derivation (the rules are monotone),
    // so the previous graph is taken whole and new derivations extend it.
    if (!Prov->copyNodesFrom(*Prev.Prov))
      return "previous derivation graph exceeds the provenance capacity";

    // Replay the relations checkpoint-style, as already processed.
    auto ReplayAll = [this](const auto &Rel) {
      for (const auto &F : Rel)
        replay(F);
    };
    ReplayAll(Prev.Pts);
    ReplayAll(Prev.Hpts);
    ReplayAll(Prev.Hload);
    ReplayAll(Prev.Call);
    ReplayAll(Prev.Reach);
    ReplayAll(Prev.Gpts);

    // Seed only the tuples the new rows can join against — one driving
    // side per rule suffices because the fire-time index lookups already
    // see every new input row. (Entry additions need nothing here: run()'s
    // ENTRY loop seeds them and dedups the surviving ones.)
    auto SeedPtsOf = [this](std::uint32_t Var) {
      PtsByVar.visitAll(Var, [&](JoinIndex::Entry E) {
        PtsWork.push_back({Var, E.first, E.second});
      });
    };
    for (const auto &F : D.AddAssigns)
      SeedPtsOf(F.From);
    for (const auto &F : D.AddCasts)
      SeedPtsOf(F.From);
    for (const auto &F : D.AddLoads)
      SeedPtsOf(F.Base);
    for (const auto &F : D.AddStores)
      SeedPtsOf(F.From);
    for (const auto &F : D.AddActuals)
      SeedPtsOf(F.Var);
    for (const auto &F : D.AddReturns)
      SeedPtsOf(F.Var);
    for (const auto &F : D.AddThrows)
      SeedPtsOf(F.Var);
    for (const auto &F : D.AddVirtualInvokes)
      SeedPtsOf(F.Receiver);
    for (const auto &F : D.AddGlobalStores)
      SeedPtsOf(F.From);
    auto SeedCallsTo = [this](std::uint32_t Method) {
      CallByCallee.visitAll(Method, [&](JoinIndex::Entry E) {
        CallWork.push_back({E.first, Method, E.second});
      });
    };
    auto SeedCallsAt = [this](std::uint32_t Invoke) {
      CallByInvoke.visitAll(Invoke, [&](JoinIndex::Entry E) {
        CallWork.push_back({Invoke, E.first, E.second});
      });
    };
    for (const auto &F : D.AddFormals)
      SeedCallsTo(F.Method);
    for (const auto &F : D.AddAssignReturns)
      SeedCallsAt(F.Invoke);
    for (const auto &F : D.AddCatches)
      SeedCallsAt(F.Invoke);
    for (const auto &F : D.AddStaticInvokes)
      for (std::uint32_t CtxId : ReachByMethod[F.InMethod])
        ReachWork.push_back({F.InMethod, CtxId});
    for (const auto &F : D.AddAssignNews)
      for (std::uint32_t CtxId : ReachByMethod[F.InMethod])
        ReachWork.push_back({F.InMethod, CtxId});
    for (const auto &F : D.AddGlobalLoads)
      for (const auto &[Heap, T] : GptsByGlobal[F.Global])
        GptsWork.push_back({F.Global, Heap, T});
    return {};
  }

  Results run() {
    Stopwatch Timer;
    if (!Resumed) {
      // ENTRY: reach(main, [entry]) (truncated to the method depth so the
      // degenerate insensitive configuration gets the empty context).
      for (std::uint32_t E : DB.EntryMethods) {
        CtxtVec Entry;
        Entry.push_back(ctx::EntryElem);
        CtxtVec Ctx = Entry.takePrefix(M);
        if (addReach(E, Ctx) && Prov)
          Prov->note(ProvRel::Reach,
                     keyOf(ReachFact{E, ReachCtxts->intern(Ctx)}),
                     ProvRule::Entry, NoNode, NoNode, E);
      }
    }
    drain();
    // A converged run's checkpoint is spent: remove it so a later
    // --resume cannot pick up stale state. A resident service opts out
    // via KeepOnConverge — it writes a final converged snapshot instead,
    // which a restarted daemon restores as a warm start (all relation
    // heads at size, so the restored solver converges immediately).
    if (Ckpt.enabled() && !Meter.tripped()) {
      if (Ckpt.KeepOnConverge)
        writeCheckpoint(TerminationReason::Converged);
      else
        analysis::removeSnapshot(Ckpt.Dir);
    }

    Results R;
    R.Config = Cfg;
    if (Collapse) {
      // Report only the live (non-retired) facts.
      for (const auto &[Key, Ts] : LivePts) {
        std::uint32_t Var = static_cast<std::uint32_t>(Key >> 32);
        std::uint32_t Heap = static_cast<std::uint32_t>(Key);
        for (TransformId T : Ts)
          R.Pts.push_back({Var, Heap, T});
      }
    } else {
      R.Pts.assign(PtsRel.begin(), PtsRel.end());
    }
    R.Hpts.assign(HptsRel.begin(), HptsRel.end());
    R.Hload.assign(HloadRel.begin(), HloadRel.end());
    R.Call.assign(CallRel.begin(), CallRel.end());
    R.Reach.assign(ReachRel.begin(), ReachRel.end());
    R.Gpts.assign(GptsRel.begin(), GptsRel.end());
    R.Stat.NumGpts = GptsRel.size();
    R.Stat.NumPts = R.Pts.size();
    R.Stat.CollapsedPts = CollapsedPts;
    R.Stat.NumHpts = HptsRel.size();
    R.Stat.NumHload = HloadRel.size();
    R.Stat.NumCall = CallRel.size();
    R.Stat.NumReach = ReachRel.size();
    R.Stat.DomainSize = Dom->size();
    R.Stat.CompAttempts = CompAttempts;
    R.Stat.CompBottoms = CompBottoms;
    R.Stat.WorkItems = BaseWorkItems + WorkItems;
    R.Stat.Seconds = Timer.seconds();
    R.Stat.Term = Meter.reason();
    R.Stat.Progress.Iterations = BaseWorkItems + WorkItems;
    R.Stat.Progress.Derivations =
        static_cast<std::size_t>(totalDerivations());
    R.Stat.Progress.PendingWork = pendingWork();
    R.Stat.CheckpointError = CkptError;
    R.Stat.ProvenanceDropped = ProvDropped;
    R.Dom = std::move(Dom);
    R.ReachCtxts = ReachCtxts;
    R.Prov = std::move(Prov);
    return R;
  }

private:
  //===--- Input indices --------------------------------------------------===//

  void buildInputIndices() {
    AssignFrom.resize(DB.numVars());
    for (const auto &F : DB.Assigns)
      AssignFrom[F.From].push_back(F.To);

    LoadByBase.resize(DB.numVars());
    for (const auto &F : DB.Loads)
      LoadByBase[F.Base].push_back({F.Field, F.To});

    StoreByValue.resize(DB.numVars());
    StoreByBase.resize(DB.numVars());
    for (const auto &F : DB.Stores) {
      StoreByValue[F.From].push_back({F.Field, F.Base});
      StoreByBase[F.Base].push_back({F.Field, F.From});
    }

    ActualByVar.resize(DB.numVars());
    ActualByInvoke.resize(DB.numInvokes());
    for (const auto &F : DB.Actuals) {
      ActualByVar[F.Var].push_back({F.Invoke, F.Ordinal});
      ActualByInvoke[F.Invoke].push_back({F.Ordinal, F.Var});
    }

    for (const auto &F : DB.Formals)
      FormalOf.emplace(pairKey(F.Method, F.Ordinal), F.Var);

    ReturnByVar.resize(DB.numVars());
    ReturnByMethod.resize(DB.numMethods());
    for (const auto &F : DB.Returns) {
      ReturnByVar[F.Var].push_back(F.Method);
      ReturnByMethod[F.Method].push_back(F.Var);
    }

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
    GlobalLoadByMethod.resize(DB.numMethods());
    for (const auto &F : DB.GlobalLoads) {
      GlobalLoadByGlobal[F.Global].push_back({F.To, F.InMethod});
      GlobalLoadByMethod[F.InMethod].push_back({F.Global, F.To});
    }

    ThrowByVar.resize(DB.numVars());
    ThrowByMethod.resize(DB.numMethods());
    for (const auto &F : DB.Throws) {
      ThrowByVar[F.Var].push_back(F.Method);
      ThrowByMethod[F.Method].push_back(F.Var);
    }
    CatchByInvoke.resize(DB.numInvokes());
    for (const auto &F : DB.Catches)
      CatchByInvoke[F.Invoke].push_back(F.To);

    CastByFrom.resize(DB.numVars());
    for (const auto &F : DB.Casts)
      CastByFrom[F.From].push_back({F.To, F.Type});
    for (const auto &F : DB.Subtypes)
      SubtypePairs.insert(pairKey(F.Sub, F.Super));
  }

  bool isSubtype(std::uint32_t Sub, std::uint32_t Super) const {
    return SubtypePairs.count(pairKey(Sub, Super)) != 0;
  }

  //===--- Derived-fact insertion (dedup + index update + enqueue) --------===//

  /// All addX methods return true exactly when the tuple was newly
  /// appended to its relation — the moment a provenance edge, if enabled,
  /// must be noted by the rule site (which alone knows the premises).
  bool addPts(std::uint32_t Var, std::uint32_t Heap, TransformId T) {
    Meter.chargeDerivations();
    PtsFact F{Var, Heap, T};
    if (!PtsSet.insert(keyOf(F)).second)
      return false;
    if (Collapse && !collapseInsert(Var, Heap, T)) {
      // The fact occupies the dedup set but never reaches the relation;
      // a checkpoint must carry it separately or a resumed run would
      // re-attempt (and re-count) the same subsumed derivations.
      if (Ckpt.enabled())
        SubsumedAtInsert.push_back(F);
      return false;
    }
    Meter.chargeTuple();
    PtsRel.push_back(F);
    indexPts(F);
    PtsWork.push_back(F);
    return true;
  }

  /// Subsumption collapsing (Section 8 extension): \returns false when the
  /// new fact is subsumed by a live fact; otherwise retires live facts the
  /// new one subsumes and returns true.
  bool collapseInsert(std::uint32_t Var, std::uint32_t Heap,
                      TransformId T) {
    auto &Live = LivePts[pairKey(Var, Heap)];
    const ctx::Transformer &NewT = Dom->transformer(T);
    for (TransformId Old : Live)
      if (ctx::subsumes(Dom->transformer(Old), NewT)) {
        ++CollapsedPts;
        return false;
      }
    // Retire live facts subsumed by the new one, including their join
    // index entries so future rule firings skip them. (Already-propagated
    // consequences remain — they are sound, merely redundant.)
    std::size_t Kept = 0;
    for (std::size_t I = 0; I < Live.size(); ++I) {
      if (ctx::subsumes(NewT, Dom->transformer(Live[I]))) {
        ++CollapsedPts;
        PtsByVar.erase(Var, Dom->outKey(Live[I]), {Heap, Live[I]});
        continue;
      }
      Live[Kept++] = Live[I];
    }
    Live.resize(Kept);
    Live.push_back(T);
    return true;
  }

  bool addHpts(std::uint32_t Base, std::uint32_t Field, std::uint32_t Heap,
               TransformId T) {
    Meter.chargeDerivations();
    HptsFact F{Base, Field, Heap, T};
    if (!HptsSet.insert(keyOf(F)).second)
      return false;
    Meter.chargeTuple();
    HptsRel.push_back(F);
    indexHpts(F);
    HptsWork.push_back(F);
    return true;
  }

  bool addHload(std::uint32_t Base, std::uint32_t Field, std::uint32_t Var,
                TransformId T) {
    Meter.chargeDerivations();
    HloadFact F{Base, Field, Var, T};
    if (!HloadSet.insert(keyOf(F)).second)
      return false;
    Meter.chargeTuple();
    HloadRel.push_back(F);
    indexHload(F);
    HloadWork.push_back(F);
    return true;
  }

  bool addCall(std::uint32_t Invoke, std::uint32_t Method, TransformId T) {
    Meter.chargeDerivations();
    CallFact F{Invoke, Method, T};
    if (!CallSet.insert(keyOf(F)).second)
      return false;
    Meter.chargeTuple();
    CallRel.push_back(F);
    indexCall(F);
    CallWork.push_back(F);
    return true;
  }

  // Join-index keys: partners that sit on the left of comp are listed by
  // outKey, those on the right by inKey. The inverted partners of STORE,
  // RET and THROW sit on the right, and inKey(inv(X)) == outKey(X).
  void indexPts(const PtsFact &F) {
    PtsByVar.insert(F.Var, Dom->outKey(F.T), {F.Heap, F.T});
  }
  void indexHpts(const HptsFact &F) {
    HptsByBaseField.insert(BaseFields.intern(pairKey(F.Base, F.Field)),
                           Dom->outKey(F.T), {F.Heap, F.T});
  }
  void indexHload(const HloadFact &F) {
    HloadByBaseField.insert(BaseFields.intern(pairKey(F.Base, F.Field)),
                            Dom->inKey(F.T), {F.Var, F.T});
  }
  void indexCall(const CallFact &F) {
    CallByInvoke.insert(F.Invoke, Dom->inKey(F.T), {F.Method, F.T});
    CallByCallee.insert(F.Method, Dom->outKey(F.T), {F.Invoke, F.T});
  }

  /// Dom->comp, counted into CompAttempts/CompBottoms.
  std::optional<TransformId> comp(TransformId A, TransformId B,
                                  unsigned MaxExits, unsigned MaxEntries) {
    ++CompAttempts;
    std::optional<TransformId> R = Dom->comp(A, B, MaxExits, MaxEntries);
    if (!R)
      ++CompBottoms;
    return R;
  }

  bool addGpts(std::uint32_t Global, std::uint32_t Heap, TransformId T) {
    Meter.chargeDerivations();
    GptsFact F{Global, Heap, T};
    if (!GptsSet.insert(keyOf(F)).second)
      return false;
    Meter.chargeTuple();
    GptsRel.push_back(F);
    GptsByGlobal[Global].push_back({Heap, T});
    GptsWork.push_back(F);
    return true;
  }

  bool addReach(std::uint32_t Method, const CtxtVec &Ctx) {
    Meter.chargeDerivations();
    std::uint32_t CtxId = ReachCtxts->intern(Ctx);
    ReachFact F{Method, CtxId};
    if (!ReachSet.insert(keyOf(F)).second)
      return false;
    Meter.chargeTuple();
    ReachRel.push_back(F);
    ReachByMethod[Method].push_back(CtxId);
    ReachWork.push_back(F);
    return true;
  }

  // Replay of an already-derived tuple (snapshot restore, incremental
  // continuation): dedup set, relation vector and join index, in the
  // previous insertion order, with no rule firing and no meter charge.
  // The caller enqueues what is still unprocessed. \returns false on a
  // duplicate (or, for pts in collapse mode, a subsumed tuple).
  bool replay(const PtsFact &F) {
    if (!PtsSet.insert(keyOf(F)).second ||
        (Collapse && !collapseInsert(F.Var, F.Heap, F.T)))
      return false;
    PtsRel.push_back(F);
    indexPts(F);
    return true;
  }
  bool replay(const HptsFact &F) {
    if (!HptsSet.insert(keyOf(F)).second)
      return false;
    HptsRel.push_back(F);
    indexHpts(F);
    return true;
  }
  bool replay(const HloadFact &F) {
    if (!HloadSet.insert(keyOf(F)).second)
      return false;
    HloadRel.push_back(F);
    indexHload(F);
    return true;
  }
  bool replay(const CallFact &F) {
    if (!CallSet.insert(keyOf(F)).second)
      return false;
    CallRel.push_back(F);
    indexCall(F);
    return true;
  }
  bool replay(const ReachFact &F) {
    if (!ReachSet.insert(keyOf(F)).second)
      return false;
    ReachRel.push_back(F);
    ReachByMethod[F.Method].push_back(F.CtxtId);
    return true;
  }
  bool replay(const GptsFact &F) {
    if (!GptsSet.insert(keyOf(F)).second)
      return false;
    GptsRel.push_back(F);
    GptsByGlobal[F.Global].push_back({F.Heap, F.T});
    return true;
  }

  //===--- Checkpointing --------------------------------------------------===//

  std::uint64_t totalDerivations() const {
    return BaseDerivations + Meter.derivations();
  }

  std::size_t pendingWork() const {
    return PtsWork.size() + HptsWork.size() + HloadWork.size() +
           CallWork.size() + ReachWork.size() + GptsWork.size();
  }

  analysis::SolverSnapshot captureSnapshot(TerminationReason Term) const {
    analysis::SolverSnapshot S;
    S.BackendTag = analysis::SolverSnapshot::Backend::Native;
    S.Collapse = Collapse;
    S.Config = Cfg;
    S.Fingerprint = Fingerprint;
    S.LayoutHash = LayoutHash;
    Dom->exportInterned(S.DomainWords);
    analysis::encodeCtxtInterner(*ReachCtxts, S.ReachCtxtWords);

    // Each worklist is the suffix of its insertion-order relation vector,
    // so (rows, processed-count head) is the whole work state.
    analysis::encodeRelations(
        PtsRel, HptsRel, HloadRel, CallRel, ReachRel, GptsRel,
        {PtsRel.size() - PtsWork.size(), HptsRel.size() - HptsWork.size(),
         HloadRel.size() - HloadWork.size(), CallRel.size() - CallWork.size(),
         ReachRel.size() - ReachWork.size(), GptsRel.size() - GptsWork.size()},
        S);
    for (const PtsFact &F : SubsumedAtInsert)
      S.SubsumedWords.insert(S.SubsumedWords.end(), {F.Var, F.Heap, F.T});

    S.WorkItems = BaseWorkItems + WorkItems;
    S.Derivations = totalDerivations();
    S.Tuples = BaseTuples + Meter.tuples();
    S.CollapsedPts = CollapsedPts;
    S.Term = Term;
    S.Progress.Iterations = BaseWorkItems + WorkItems;
    S.Progress.Derivations = static_cast<std::size_t>(S.Derivations);
    S.Progress.PendingWork = pendingWork();
    return S;
  }

  void writeCheckpoint(TerminationReason Term) {
    std::string Err = analysis::writeSnapshot(
        captureSnapshot(Term), analysis::checkpointPath(Ckpt.Dir));
    if (Err.empty())
      CkptLastDerivations = totalDerivations();
    else
      CkptError = "checkpoint write failed: " + Err;
  }

  //===--- Rule firing ----------------------------------------------------===//

  void drain() {
    while (!PtsWork.empty() || !HptsWork.empty() || !HloadWork.empty() ||
           !CallWork.empty() || !ReachWork.empty() || !GptsWork.empty()) {
      // Budget poll at rule-firing granularity: one item's consequences
      // are always fully derived (the adds above never abort mid-item),
      // so a trip leaves the relations a sound prefix of the fixpoint
      // with the unprocessed items counted as pending work — which is
      // also exactly the state a trip-time checkpoint captures.
      if (auto Trip = Meter.poll()) {
        if (Ckpt.enabled())
          writeCheckpoint(*Trip);
        return;
      }
      if (Ckpt.enabled() && Ckpt.EveryDerivations != 0 &&
          totalDerivations() - CkptLastDerivations >= Ckpt.EveryDerivations)
        writeCheckpoint(TerminationReason::Converged);
      if (!PtsWork.empty()) {
        PtsFact F = PtsWork.front();
        PtsWork.pop_front();
        ++WorkItems;
        onNewPts(F);
        continue;
      }
      if (!HptsWork.empty()) {
        HptsFact F = HptsWork.front();
        HptsWork.pop_front();
        ++WorkItems;
        onNewHpts(F);
        continue;
      }
      if (!HloadWork.empty()) {
        HloadFact F = HloadWork.front();
        HloadWork.pop_front();
        ++WorkItems;
        onNewHload(F);
        continue;
      }
      if (!CallWork.empty()) {
        CallFact F = CallWork.front();
        CallWork.pop_front();
        ++WorkItems;
        onNewCall(F);
        continue;
      }
      if (!GptsWork.empty()) {
        GptsFact F = GptsWork.front();
        GptsWork.pop_front();
        ++WorkItems;
        onNewGpts(F);
        continue;
      }
      ReachFact F = ReachWork.front();
      ReachWork.pop_front();
      ++WorkItems;
      onNewReach(F);
    }
  }

  void onNewPts(const PtsFact &F) {
    // Provenance node of the driving fact (NoNode when recording is off;
    // each note() below then never executes thanks to the && Prov guard).
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Pts, keyOf(F)) : NoNode;

    // [ASSIGN] pts(Z,H,A), assign(Z,Y) |- pts(Y,H,A).
    for (std::uint32_t Y : AssignFrom[F.Var])
      if (addPts(Y, F.Heap, F.T) && Prov)
        Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, F.T}),
                   ProvRule::Assign, FN, NoNode, F.Var);

    // [CAST] pts(Z,H,A), cast(Z,Y,T), heap_type(H,T'), subtype(T',T)
    //        |- pts(Y,H,A): an assignment filtered by the cast type.
    for (const auto &[Y, T] : CastByFrom[F.Var])
      if (isSubtype(HeapTypeOf[F.Heap], T))
        if (addPts(Y, F.Heap, F.T) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, F.T}),
                     ProvRule::Cast, FN, NoNode, F.Var);

    // [LOAD] pts(Y,G,A), load(Y,F,Z) |- hload(G,F,Z,A).
    for (const auto &[Field, To] : LoadByBase[F.Var])
      if (addHload(F.Heap, Field, To, F.T) && Prov)
        Prov->note(ProvRel::Hload, keyOf(HloadFact{F.Heap, Field, To, F.T}),
                   ProvRule::Load, FN, NoNode, F.Var);

    // Every join below probes with outKey(F.T): this fact is comp's left
    // operand, or (STORE's base side) its inverted right operand, and
    // inKey(inv(X)) == outKey(X). Partners on the right are listed by
    // inKey, inverted ones by outKey.
    const std::uint32_t OutK = Dom->outKey(F.T);

    // [STORE] pts(X,H,B), store(X,Fl,Z), pts(Z,G,C)
    //         |- hpts(G,Fl,H, B ; inv(C)).
    // Provenance premise order is always (value pts, base pts).
    // Driven from the stored-value side (this fact is pts(X,H,B))...
    for (const auto &[Field, Base] : StoreByValue[F.Var])
      PtsByVar.visit(Base, OutK, [&](JoinIndex::Entry P) {
        auto [G, C] = P;
        if (auto A = comp(F.T, Dom->inv(C), H, H))
          if (addHpts(G, Field, F.Heap, *A) && Prov)
            Prov->note(ProvRel::Hpts, keyOf(HptsFact{G, Field, F.Heap, *A}),
                       ProvRule::Store, FN,
                       Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Base, G, C})),
                       F.Var);
      });
    // ...and from the base side (this fact is pts(Z,G,C)): B ; inv(C)
    // needs outKey(B) compatible with inKey(inv(C)) == outKey(C).
    for (const auto &[Field, Value] : StoreByBase[F.Var])
      PtsByVar.visit(Value, OutK, [&](JoinIndex::Entry P) {
        auto [Hp, B] = P;
        if (auto A = comp(B, Dom->inv(F.T), H, H))
          if (addHpts(F.Heap, Field, Hp, *A) && Prov)
            Prov->note(ProvRel::Hpts, keyOf(HptsFact{F.Heap, Field, Hp, *A}),
                       ProvRule::Store,
                       Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Value, Hp, B})),
                       FN, Value);
      });

    // [PARAM] pts(Z,H,B), actual(Z,I,O), call(I,P,C), formal(Y,P,O)
    //         |- pts(Y,H, B ; C). Premise order: (actual pts, call).
    for (const auto &[Invoke, Ord] : ActualByVar[F.Var])
      CallByInvoke.visit(Invoke, OutK, [&](JoinIndex::Entry P) {
        auto [Callee, C] = P;
        if (auto It = FormalOf.find(pairKey(Callee, Ord));
            It != FormalOf.end())
          if (auto A = comp(F.T, C, H, M))
            if (addPts(It->second, F.Heap, *A) && Prov)
              Prov->note(
                  ProvRel::Pts, keyOf(PtsFact{It->second, F.Heap, *A}),
                  ProvRule::Param, FN,
                  Prov->lookup(ProvRel::Call, keyOf(CallFact{Invoke, Callee, C})),
                  Invoke);
      });

    // [SHORTCUT] (cutshortcut mode) pts(Z,H,B), actual(Z,I,O),
    //            call(I,P,C), shortcut(P,O), assign_return(I,Y)
    //            |- pts(Y,H, (B ; C) ; inv(C)) — the actual forwarded
    //            straight to this call's result, replacing the cut RET
    //            flow per call site. Premise order: (actual pts, call).
    if (CutMode)
      for (const auto &[Invoke, Ord] : ActualByVar[F.Var])
        CallByInvoke.visit(Invoke, OutK, [&](JoinIndex::Entry P) {
          auto [Callee, C] = P;
          if (CutPlan.hasShortcut(Callee, Ord))
            if (auto In = comp(F.T, C, H, M))
              if (auto A = comp(*In, Dom->inv(C), H, M))
                for (std::uint32_t Y : AssignRetByInvoke[Invoke])
                  if (addPts(Y, F.Heap, *A) && Prov)
                    Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, *A}),
                               ProvRule::Shortcut, FN,
                               Prov->lookup(ProvRel::Call,
                                            keyOf(CallFact{Invoke, Callee, C})),
                               Invoke);
        });

    // [RET] pts(Z,H,B), return(Z,P), call(I,P,C), assign_return(I,Y)
    //       |- pts(Y,H, B ; inv(C)). Premise order: (return pts, call).
    // In cutshortcut mode the cut (method, return-var) pairs are skipped:
    // their flows are re-delivered per call site by [SHORTCUT].
    for (std::uint32_t P : ReturnByVar[F.Var]) {
      if (CutMode && CutPlan.isCutReturn(P, F.Var))
        continue;
      CallByCallee.visit(P, OutK, [&](JoinIndex::Entry E) {
        auto [Invoke, C] = E;
        if (auto A = comp(F.T, Dom->inv(C), H, M))
          for (std::uint32_t Y : AssignRetByInvoke[Invoke])
            if (addPts(Y, F.Heap, *A) && Prov)
              Prov->note(
                  ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, *A}), ProvRule::Ret,
                  FN,
                  Prov->lookup(ProvRel::Call, keyOf(CallFact{Invoke, P, C})),
                  Invoke);
      });
    }

    // [THROW] pts(Z,H,B), throw(Z,P), call(I,P,C), catch(I,Y)
    //         |- pts(Y,H, B ; inv(C)) — the exceptional return path.
    for (std::uint32_t P : ThrowByVar[F.Var])
      CallByCallee.visit(P, OutK, [&](JoinIndex::Entry E) {
        auto [Invoke, C] = E;
        if (auto A = comp(F.T, Dom->inv(C), H, M))
          for (std::uint32_t Y : CatchByInvoke[Invoke])
            if (addPts(Y, F.Heap, *A) && Prov)
              Prov->note(
                  ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, *A}), ProvRule::Throw,
                  FN,
                  Prov->lookup(ProvRel::Call, keyOf(CallFact{Invoke, P, C})),
                  Invoke);
      });

    // [GSTORE] pts(X,H,B), global_store(X,G) |- gpts(G,H, globalize(B)).
    if (!GlobalStoreByValue[F.Var].empty()) {
      TransformId GT = Dom->globalize(F.T);
      for (std::uint32_t G : GlobalStoreByValue[F.Var])
        if (addGpts(G, F.Heap, GT) && Prov)
          Prov->note(ProvRel::Gpts, keyOf(GptsFact{G, F.Heap, GT}),
                     ProvRule::GStore, FN, NoNode, F.Var);
    }

    // [VIRT] virtual_invoke(I,Z,S), pts(Z,H,B), heap_type(H,T),
    //        implements(Q,T,S), this_var(Y,Q), C := merge(H,I,B)
    //        |- call(I,Q,C) and pts(Y,H, B ; C).
    if (!VirtByReceiver[F.Var].empty()) {
      std::uint32_t HeapType = HeapTypeOf[F.Heap];
      for (const auto &[Invoke, Sig] : VirtByReceiver[F.Var]) {
        auto It = Dispatch.find(pairKey(HeapType, Sig));
        if (It == Dispatch.end())
          continue; // No implementation: dead dispatch.
        std::uint32_t Q = It->second;
        TransformId C = Dom->mergeVirtual(F.Heap, Invoke, F.T);
        if (addCall(Invoke, Q, C) && Prov)
          Prov->note(ProvRel::Call, keyOf(CallFact{Invoke, Q, C}),
                     ProvRule::VirtCall, FN, NoNode, Invoke);
        std::uint32_t ThisY = ThisOf[Q];
        assert(ThisY != facts::InvalidId &&
               "dispatched method has no this variable");
        if (auto A = comp(F.T, C, H, M))
          if (addPts(ThisY, F.Heap, *A) && Prov)
            Prov->note(
                ProvRel::Pts, keyOf(PtsFact{ThisY, F.Heap, *A}),
                ProvRule::VirtThis, FN,
                Prov->lookup(ProvRel::Call, keyOf(CallFact{Invoke, Q, C})),
                Invoke);
      }
    }
  }

  void onNewHpts(const HptsFact &F) {
    // [IND] hpts(G,Fl,H,B), hload(G,Fl,Y,C) |- pts(Y,H, B ; C).
    // Provenance premise order is always (hpts, hload).
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Hpts, keyOf(F)) : NoNode;
    HloadByBaseField.visit(
        BaseFields.lookup(pairKey(F.Base, F.Field)), Dom->outKey(F.T),
        [&](JoinIndex::Entry E) {
          auto [Y, C] = E;
          if (auto A = comp(F.T, C, H, M))
            if (addPts(Y, F.Heap, *A) && Prov)
              Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, F.Heap, *A}),
                         ProvRule::Ind, FN,
                         Prov->lookup(ProvRel::Hload,
                                      keyOf(HloadFact{F.Base, F.Field, Y, C})),
                         UINT32_MAX);
        });
  }

  void onNewHload(const HloadFact &F) {
    // [IND], driven from the load side.
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Hload, keyOf(F)) : NoNode;
    HptsByBaseField.visit(
        BaseFields.lookup(pairKey(F.Base, F.Field)), Dom->inKey(F.T),
        [&](JoinIndex::Entry E) {
          auto [Hp, B] = E;
          if (auto A = comp(B, F.T, H, M))
            if (addPts(F.Var, Hp, *A) && Prov)
              Prov->note(ProvRel::Pts, keyOf(PtsFact{F.Var, Hp, *A}),
                         ProvRule::Ind,
                         Prov->lookup(ProvRel::Hpts,
                                      keyOf(HptsFact{F.Base, F.Field, Hp, B})),
                         FN, UINT32_MAX);
        });
  }

  void onNewCall(const CallFact &F) {
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Call, keyOf(F)) : NoNode;

    // [REACH] call(I,P,A) |- reach(P, target(A)).
    CtxtVec Tgt = Dom->target(F.T);
    if (addReach(F.Method, Tgt) && Prov)
      Prov->note(ProvRel::Reach,
                 keyOf(ReachFact{F.Method, ReachCtxts->intern(Tgt)}),
                 ProvRule::Reach, FN, NoNode, F.Invoke);

    // Join probes: B ; C (PARAM, SHORTCUT) needs outKey(B) compatible with
    // inKey(C); B ; inv(C) (RET, THROW) with inKey(inv(C)) == outKey(C).
    // The actual Z and the assign-return or catch target Y live in the
    // same caller method and may be one variable, so the addPts below can
    // grow the pts list being visited; JoinIndex::visit allows that.
    const std::uint32_t InK = Dom->inKey(F.T), OutK = Dom->outKey(F.T);

    // [PARAM], driven from the call side. Premise order: (actual pts, call).
    for (const auto &[Ord, Z] : ActualByInvoke[F.Invoke])
      if (auto It = FormalOf.find(pairKey(F.Method, Ord));
          It != FormalOf.end())
        PtsByVar.visit(Z, InK, [&](JoinIndex::Entry E) {
          auto [Hp, B] = E;
          if (auto A = comp(B, F.T, H, M))
            if (addPts(It->second, Hp, *A) && Prov)
              Prov->note(ProvRel::Pts, keyOf(PtsFact{It->second, Hp, *A}),
                         ProvRule::Param,
                         Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Z, Hp, B})),
                         FN, F.Invoke);
        });

    // [SHORTCUT], driven from the call side (cutshortcut mode).
    if (CutMode && !AssignRetByInvoke[F.Invoke].empty()) {
      TransformId InvC = Dom->inv(F.T);
      for (const auto &[Ord, Z] : ActualByInvoke[F.Invoke])
        if (CutPlan.hasShortcut(F.Method, Ord))
          PtsByVar.visit(Z, InK, [&](JoinIndex::Entry E) {
            auto [Hp, B] = E;
            if (auto In = comp(B, F.T, H, M))
              if (auto A = comp(*In, InvC, H, M))
                for (std::uint32_t Y : AssignRetByInvoke[F.Invoke])
                  if (addPts(Y, Hp, *A) && Prov)
                    Prov->note(
                        ProvRel::Pts, keyOf(PtsFact{Y, Hp, *A}),
                        ProvRule::Shortcut,
                        Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Z, Hp, B})),
                        FN, F.Invoke);
          });
    }

    // [RET], driven from the call side (cut pairs skipped as above).
    if (!AssignRetByInvoke[F.Invoke].empty()) {
      TransformId InvC = Dom->inv(F.T);
      for (std::uint32_t Z : ReturnByMethod[F.Method]) {
        if (CutMode && CutPlan.isCutReturn(F.Method, Z))
          continue;
        PtsByVar.visit(Z, OutK, [&](JoinIndex::Entry E) {
          auto [Hp, B] = E;
          if (auto A = comp(B, InvC, H, M))
            for (std::uint32_t Y : AssignRetByInvoke[F.Invoke])
              if (addPts(Y, Hp, *A) && Prov)
                Prov->note(
                    ProvRel::Pts, keyOf(PtsFact{Y, Hp, *A}), ProvRule::Ret,
                    Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Z, Hp, B})), FN,
                    F.Invoke);
        });
      }
    }

    // [THROW], driven from the call side.
    if (!CatchByInvoke[F.Invoke].empty()) {
      TransformId InvC = Dom->inv(F.T);
      for (std::uint32_t Z : ThrowByMethod[F.Method])
        PtsByVar.visit(Z, OutK, [&](JoinIndex::Entry E) {
          auto [Hp, B] = E;
          if (auto A = comp(B, InvC, H, M))
            for (std::uint32_t Y : CatchByInvoke[F.Invoke])
              if (addPts(Y, Hp, *A) && Prov)
                Prov->note(
                    ProvRel::Pts, keyOf(PtsFact{Y, Hp, *A}), ProvRule::Throw,
                    Prov->lookup(ProvRel::Pts, keyOf(PtsFact{Z, Hp, B})), FN,
                    F.Invoke);
        });
    }
  }

  void onNewGpts(const GptsFact &F) {
    // [GLOAD] gpts(G,H,A), global_load(G,Z,P), reach(P,Mx)
    //         |- pts(Z,H, retarget(A,Mx)).
    // Provenance premise order is always (gpts, reach).
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Gpts, keyOf(F)) : NoNode;
    for (const auto &[Z, P] : GlobalLoadByGlobal[F.Global])
      for (std::uint32_t CtxId : ReachByMethod[P]) {
        TransformId A = Dom->retarget(F.T, (*ReachCtxts)[CtxId]);
        if (addPts(Z, F.Heap, A) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{Z, F.Heap, A}),
                     ProvRule::GLoad, FN,
                     Prov->lookup(ProvRel::Reach, keyOf(ReachFact{P, CtxId})),
                     F.Global);
      }
  }

  void onNewReach(const ReachFact &F) {
    const CtxtVec &Ctx = (*ReachCtxts)[F.CtxtId];
    const std::uint32_t FN =
        Prov ? Prov->lookup(ProvRel::Reach, keyOf(F)) : NoNode;
    // [GLOAD], driven from the reach side.
    for (const auto &[G, Z] : GlobalLoadByMethod[F.Method])
      for (const auto &[Hp, A] : GptsByGlobal[G]) {
        TransformId RT = Dom->retarget(A, Ctx);
        if (addPts(Z, Hp, RT) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{Z, Hp, RT}), ProvRule::GLoad,
                     Prov->lookup(ProvRel::Gpts, keyOf(GptsFact{G, Hp, A})),
                     FN, G);
      }
    // [NEW] assign_new(H,Y,P), reach(P,Mx) |- pts(Y,H, record(Mx)).
    if (!AssignNewByMethod[F.Method].empty()) {
      TransformId A = Dom->record(Ctx);
      for (const auto &[Hp, Y] : AssignNewByMethod[F.Method])
        if (addPts(Y, Hp, A) && Prov)
          Prov->note(ProvRel::Pts, keyOf(PtsFact{Y, Hp, A}), ProvRule::New,
                     FN, NoNode, Hp);
    }
    // [STATIC] static_invoke(I,Q,P), reach(P,Mx)
    //          |- call(I,Q, merge_s(I,Mx)).
    for (const auto &[Invoke, Target] : StaticByMethod[F.Method]) {
      TransformId C = Dom->mergeStatic(Invoke, Ctx);
      if (addCall(Invoke, Target, C) && Prov)
        Prov->note(ProvRel::Call, keyOf(CallFact{Invoke, Target, C}),
                   ProvRule::Static, FN, NoNode, Invoke);
    }
  }

  //===--- State ----------------------------------------------------------===//

  const FactDB &DB;
  ctx::Config Cfg;
  unsigned M, H;
  bool Collapse;
  bool CutMode = false;
  ctx::CutShortcutPlan CutPlan;
  std::size_t CollapsedPts = 0;
  std::unordered_map<std::uint64_t, std::vector<TransformId>> LivePts;
  std::unique_ptr<ctx::Domain> Dom;
  std::shared_ptr<Interner<CtxtVec, ctx::CtxtVecHash>> ReachCtxts;

  // Input indices.
  std::vector<std::vector<std::uint32_t>> AssignFrom;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      LoadByBase, StoreByValue, StoreByBase, ActualByVar, ActualByInvoke,
      VirtByReceiver, StaticByMethod, AssignNewByMethod;
  std::unordered_map<std::uint64_t, std::uint32_t> FormalOf;
  std::vector<std::vector<std::uint32_t>> ReturnByVar, ReturnByMethod,
      AssignRetByInvoke, ThrowByVar, ThrowByMethod, CatchByInvoke,
      GlobalStoreByValue;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      GlobalLoadByGlobal, GlobalLoadByMethod;
  std::vector<std::uint32_t> HeapTypeOf, ThisOf;
  std::unordered_map<std::uint64_t, std::uint32_t> Dispatch;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      CastByFrom;
  std::unordered_set<std::uint64_t> SubtypePairs;

  // Derived relations, dedup sets, and join indices.
  std::unordered_set<FactKey, FactKeyHash> PtsSet, HptsSet, HloadSet,
      CallSet, ReachSet, GptsSet;
  std::vector<PtsFact> PtsRel;
  std::vector<HptsFact> HptsRel;
  std::vector<HloadFact> HloadRel;
  std::vector<CallFact> CallRel;
  std::vector<ReachFact> ReachRel;
  std::vector<GptsFact> GptsRel;
  std::vector<std::vector<std::pair<std::uint32_t, TransformId>>>
      GptsByGlobal;
  JoinIndex PtsByVar, HptsByBaseField, HloadByBaseField, CallByInvoke,
      CallByCallee;
  /// Dense owner ids of the (base heap, field) pairs of hpts/hload.
  Interner<std::uint64_t> BaseFields;
  std::uint64_t CompAttempts = 0, CompBottoms = 0;
  std::vector<std::vector<std::uint32_t>> ReachByMethod;

  std::deque<PtsFact> PtsWork;
  std::deque<HptsFact> HptsWork;
  std::deque<HloadFact> HloadWork;
  std::deque<CallFact> CallWork;
  std::deque<ReachFact> ReachWork;
  std::deque<GptsFact> GptsWork;

  std::size_t WorkItems = 0;
  BudgetMeter Meter;

  // First-derivation provenance. Null unless requested — and dropped again
  // (with ProvDropped explaining why) when the run restores a snapshot.
  static constexpr std::uint32_t NoNode = ProvenanceGraph::InvalidNode;
  std::unique_ptr<ProvenanceGraph> Prov;
  std::string ProvDropped;

  // Checkpoint/resume state. The Base* counters carry the cumulative
  // totals of the interrupted run(s) a snapshot was restored from; the
  // meter itself is always fresh per invocation so a resumed run gets
  // its full budget again.
  analysis::CheckpointPolicy Ckpt;
  std::uint64_t Fingerprint = 0, LayoutHash = 0;
  std::uint64_t CkptLastDerivations = 0;
  std::uint64_t BaseDerivations = 0, BaseTuples = 0;
  std::size_t BaseWorkItems = 0;
  std::vector<PtsFact> SubsumedAtInsert;
  std::string CkptError;
  bool Resumed = false;
};

} // namespace

namespace {

Results solveNative(const FactDB &DB, const ctx::Config &Cfg,
                    const SolverOptions &Opts) {
  if (Opts.Resume) {
    Solver S(DB, Cfg, Opts);
    std::string Err = S.tryRestore(*Opts.Resume);
    if (Err.empty())
      return S.run();
    // A snapshot that fails its structural checks must never crash the
    // run: discard the partially restored solver and cold-start.
    SolverOptions ColdOpts = Opts;
    ColdOpts.Resume = nullptr;
    Solver Cold(DB, Cfg, ColdOpts);
    Results R = Cold.run();
    if (R.Stat.CheckpointError.empty())
      R.Stat.CheckpointError = "resume failed: " + Err;
    return R;
  }
  Solver S(DB, Cfg, Opts);
  return S.run();
}

} // namespace

Results analysis::solve(const FactDB &DB, const ctx::Config &Cfg,
                        const SolverOptions &Opts) {
  assert(Cfg.validate().empty() && "invalid analysis configuration");
  assert(DB.validate().empty() && "invalid fact database");
  if (Cfg.SolveMode == ctx::Mode::Unify) {
    // The union-find core records no Figure-3 derivations and carries no
    // native checkpoint state. When provenance or checkpoint/resume is
    // requested, run the native engine over the symmetrized view instead:
    // the insensitive fixpoint of unifyView(DB) is exactly the unification
    // answer, and the vanilla rules then justify every tuple.
    if (Opts.Provenance.Enabled || Opts.Checkpoint.enabled() || Opts.Resume) {
      facts::FactDB View = unifyView(DB);
      return solveNative(View, Cfg, Opts);
    }
    return solveUnify(DB, Cfg, Opts);
  }
  return solveNative(DB, Cfg, Opts);
}

IncrementalOutcome analysis::resolveIncremental(const FactDB &NewDB,
                                                const ctx::Config &Cfg,
                                                const Results &Prev,
                                                const InputDelta &D,
                                                const IncrementalOptions &Opts) {
  assert(Cfg.validate().empty() && "invalid analysis configuration");
  assert(NewDB.validate().empty() && "invalid fact database");
  IncrementalOutcome Out;
  SolverOptions SO = Opts.Solver;
  // Provenance lets the *next* delta continue from this result;
  // checkpoints and resumes belong to the caller's transaction, not to the
  // re-solve (a mid-transaction snapshot write would clobber the previous
  // epoch's certified warm-start image before this result is certified).
  SO.Provenance.Enabled = true;
  SO.Checkpoint = CheckpointPolicy();
  SO.Resume = nullptr;
  if (D.NeedsColdSolve) {
    Out.FallbackReason = "the delta removes a row or adds a type/dispatch "
                         "side condition (heap_type, implements, subtype, "
                         "this_var)";
  } else {
    Solver S(NewDB, Cfg, SO);
    Out.FallbackReason = S.tryIncremental(Prev, D);
    if (Out.FallbackReason.empty()) {
      Out.R = S.run();
      Out.Incremental = true;
      return Out;
    }
  }
  // Cold re-solve of the edited facts, with provenance on so the delta
  // after this one can be incremental again. Routed through solve() so
  // the contextless modes take their own paths (unify must run over its
  // symmetrized view).
  Out.R = solve(NewDB, Cfg, SO);
  Out.Invalidated = Prev.numTuples();
  return Out;
}
