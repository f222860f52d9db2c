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
#include <optional>
#include <tuple>
#include <type_traits>
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

/// The empty premise slot of a one-premise rule or an axiom.
struct NoFact {};

constexpr ProvRel provRel(const PtsFact &) { return ProvRel::Pts; }
constexpr ProvRel provRel(const HptsFact &) { return ProvRel::Hpts; }
constexpr ProvRel provRel(const HloadFact &) { return ProvRel::Hload; }
constexpr ProvRel provRel(const CallFact &) { return ProvRel::Call; }
constexpr ProvRel provRel(const ReachFact &) { return ProvRel::Reach; }
constexpr ProvRel provRel(const GptsFact &) { return ProvRel::Gpts; }

/// One derived relation: its dedup set, its rows in insertion order, and
/// how many leading rows have had their rules fired. The unprocessed
/// suffix Rows[Head..] is the relation's FIFO worklist, so (Rows, Head)
/// is also exactly what a checkpoint records.
template <typename Fact> struct Relation {
  std::unordered_set<FactKey, FactKeyHash> Set;
  std::vector<Fact> Rows;
  std::size_t Head = 0;

  std::size_t pending() const { return Rows.size() - Head; }
};

/// The solver state: input indices built once, and the derived relations
/// with their join indices.
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
  /// join indices and the collapse-mode live table fall out of the replay
  /// deterministically, and each relation's worklist resumes at its
  /// recorded head. \returns an empty string on success; on failure the
  /// solver must be discarded (partially restored) and the caller
  /// cold-starts a fresh one.
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

    std::string E = restore<PtsFact>(S.Pts, "pts");
    if (E.empty())
      E = restore<HptsFact>(S.Hpts, "hpts");
    if (E.empty())
      E = restore<HloadFact>(S.Hload, "hload");
    if (E.empty())
      E = restore<CallFact>(S.Call, "call");
    if (E.empty())
      E = restore<ReachFact>(S.Reach, "reach");
    if (E.empty())
      E = restore<GptsFact>(S.Gpts, "gpts");
    if (!E.empty())
      return E;
    const std::vector<std::uint32_t> &SW = S.SubsumedWords;
    for (std::size_t I = 0; I < SW.size(); I += 3) {
      PtsFact F{SW[I], SW[I + 1], SW[I + 2]};
      if (!inRange(F))
        return "snapshot subsumed-pts section has out-of-range ids";
      if (!rel<PtsFact>().Set.insert(keyOf(F)).second)
        return "snapshot subsumed-pts section has duplicate tuples";
      if (Ckpt.enabled())
        SubsumedAtInsert.push_back(F);
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
  /// provenance node — and fires the rules of the previous tuples the
  /// narrow additions \p D can join against, so run() only drains what
  /// the new rows add. \returns an empty string when \p Prev can be
  /// continued; else the fallback reason — the solver is then partially
  /// mutated and must be discarded in favour of a cold one.
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
    auto Replay = [this](const auto &Rows) {
      for (const auto &F : Rows)
        insert(F);
    };
    Replay(Prev.Pts);
    Replay(Prev.Hpts);
    Replay(Prev.Hload);
    Replay(Prev.Call);
    Replay(Prev.Reach);
    Replay(Prev.Gpts);
    std::apply([](auto &...R) { ((R.Head = R.Rows.size()), ...); }, Rels);

    // Fire only the tuples the new rows can join against — one driving
    // side per rule suffices because the fire-time index lookups already
    // see every new input row. (Entry additions need nothing here: run()'s
    // ENTRY loop seeds them and dedups the surviving ones.) The seeds are
    // collected first because firing them grows the indices they come
    // from.
    std::vector<PtsFact> PtsSeeds;
    std::vector<CallFact> CallSeeds;
    std::vector<ReachFact> ReachSeeds;
    std::vector<GptsFact> GptsSeeds;
    auto PtsOf = [&](std::uint32_t Var) {
      PtsByVar.visitAll(Var, [&](JoinIndex::Entry E) {
        PtsSeeds.push_back({Var, E.first, E.second});
      });
    };
    for (const auto &F : D.AddAssigns)
      PtsOf(F.From);
    for (const auto &F : D.AddCasts)
      PtsOf(F.From);
    for (const auto &F : D.AddLoads)
      PtsOf(F.Base);
    for (const auto &F : D.AddStores)
      PtsOf(F.From);
    for (const auto &F : D.AddActuals)
      PtsOf(F.Var);
    for (const auto &F : D.AddReturns)
      PtsOf(F.Var);
    for (const auto &F : D.AddThrows)
      PtsOf(F.Var);
    for (const auto &F : D.AddVirtualInvokes)
      PtsOf(F.Receiver);
    for (const auto &F : D.AddGlobalStores)
      PtsOf(F.From);
    auto CallsTo = [&](std::uint32_t Method) {
      CallByCallee.visitAll(Method, [&](JoinIndex::Entry E) {
        CallSeeds.push_back({E.first, Method, E.second});
      });
    };
    auto CallsAt = [&](std::uint32_t Invoke) {
      CallByInvoke.visitAll(Invoke, [&](JoinIndex::Entry E) {
        CallSeeds.push_back({Invoke, E.first, E.second});
      });
    };
    for (const auto &F : D.AddFormals)
      CallsTo(F.Method);
    for (const auto &F : D.AddAssignReturns)
      CallsAt(F.Invoke);
    for (const auto &F : D.AddCatches)
      CallsAt(F.Invoke);
    auto ReachOf = [&](std::uint32_t Method) {
      for (std::uint32_t CtxId : ReachByMethod[Method])
        ReachSeeds.push_back({Method, CtxId});
    };
    for (const auto &F : D.AddStaticInvokes)
      ReachOf(F.InMethod);
    for (const auto &F : D.AddAssignNews)
      ReachOf(F.InMethod);
    for (const auto &F : D.AddGlobalLoads)
      for (const auto &[Heap, T] : GptsByGlobal[F.Global])
        GptsSeeds.push_back({F.Global, Heap, T});
    fireAll(PtsSeeds);
    fireAll(CallSeeds);
    fireAll(ReachSeeds);
    fireAll(GptsSeeds);
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
        derive(ReachFact{E, ReachCtxts->intern(Entry.takePrefix(M))},
               ProvRule::Entry, NoFact{}, NoFact{}, E);
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
    R.Stat.DomainSize = Dom->size();
    R.Stat.CompAttempts = CompAttempts;
    R.Stat.CompBottoms = CompBottoms;
    R.Stat.WorkItems = BaseWorkItems + WorkItems;
    R.Stat.Term = Meter.reason();
    R.Stat.Progress.Iterations = BaseWorkItems + WorkItems;
    R.Stat.Progress.Derivations =
        static_cast<std::size_t>(totalDerivations());
    R.Stat.Progress.PendingWork = pendingWork();
    R.Stat.CheckpointError = CkptError;
    R.Stat.ProvenanceDropped = ProvDropped;
    if (Collapse) {
      // Report only the live (non-retired) facts.
      for (const auto &[Key, Ts] : LivePts) {
        std::uint32_t Var = static_cast<std::uint32_t>(Key >> 32);
        std::uint32_t Heap = static_cast<std::uint32_t>(Key);
        for (TransformId T : Ts)
          R.Pts.push_back({Var, Heap, T});
      }
    } else {
      R.Pts = std::move(rel<PtsFact>().Rows);
    }
    R.Hpts = std::move(rel<HptsFact>().Rows);
    R.Hload = std::move(rel<HloadFact>().Rows);
    R.Call = std::move(rel<CallFact>().Rows);
    R.Reach = std::move(rel<ReachFact>().Rows);
    R.Gpts = std::move(rel<GptsFact>().Rows);
    R.Stat.NumPts = R.Pts.size();
    R.Stat.CollapsedPts = CollapsedPts;
    R.Stat.NumHpts = R.Hpts.size();
    R.Stat.NumHload = R.Hload.size();
    R.Stat.NumCall = R.Call.size();
    R.Stat.NumReach = R.Reach.size();
    R.Stat.NumGpts = R.Gpts.size();
    R.Dom = std::move(Dom);
    R.ReachCtxts = ReachCtxts;
    R.Prov = std::move(Prov);
    R.Stat.Seconds = Timer.seconds();
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

  //===--- Derived relations ----------------------------------------------===//

  template <typename Fact> Relation<Fact> &rel() {
    return std::get<Relation<Fact>>(Rels);
  }

  std::size_t pendingWork() const {
    return std::apply([](const auto &...R) { return (R.pending() + ...); },
                      Rels);
  }

  /// The one place a derived tuple is concluded: charges the meter,
  /// inserts (dedup, row, join index, and so the worklist), and records
  /// the first derivation — rule \p Rule from premises \p P0 and \p P1
  /// (NoFact for an empty slot) plus the input selector \p Aux.
  template <typename Fact, typename Prem0, typename Prem1>
  void derive(const Fact &F, ProvRule Rule, const Prem0 &P0,
              const Prem1 &P1, std::uint32_t Aux) {
    Meter.chargeDerivations();
    if (!insert(F))
      return;
    Meter.chargeTuple();
    if (Prov)
      Prov->note(provRel(F), keyOf(F), Rule, node(P0), node(P1), Aux);
  }

  std::uint32_t node(NoFact) const { return NoNode; }
  template <typename Fact> std::uint32_t node(const Fact &F) const {
    return Prov->lookup(provRel(F), keyOf(F));
  }

  /// Dedup, row append and join indexing, without meter or provenance —
  /// shared by derive() and the replays of restore and incremental
  /// continuation. \returns false for a duplicate, or (collapse mode) a
  /// pts fact a live one subsumes.
  template <typename Fact> bool insert(const Fact &F) {
    Relation<Fact> &R = rel<Fact>();
    if (!R.Set.insert(keyOf(F)).second)
      return false;
    if constexpr (std::is_same_v<Fact, PtsFact>)
      if (Collapse && !collapseInsert(F)) {
        // The fact occupies the dedup set but never reaches the relation;
        // a checkpoint must carry it separately or a resumed run would
        // re-attempt (and re-count) the same subsumed derivations.
        if (Ckpt.enabled())
          SubsumedAtInsert.push_back(F);
        return false;
      }
    R.Rows.push_back(F);
    index(F);
    return true;
  }

  /// Subsumption collapsing (Section 8 extension): \returns false when the
  /// new fact is subsumed by a live fact; otherwise retires live facts the
  /// new one subsumes and returns true.
  bool collapseInsert(const PtsFact &F) {
    auto &Live = LivePts[pairKey(F.Var, F.Heap)];
    const ctx::Transformer &NewT = Dom->transformer(F.T);
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
        PtsByVar.erase(F.Var, Dom->outKey(Live[I]), {F.Heap, Live[I]});
        continue;
      }
      Live[Kept++] = Live[I];
    }
    Live.resize(Kept);
    Live.push_back(F.T);
    return true;
  }

  // Join-index keys: partners that sit on the left of comp are listed by
  // outKey, those on the right by inKey. The inverted partners of STORE,
  // RET and THROW sit on the right, and inKey(inv(X)) == outKey(X).
  void index(const PtsFact &F) {
    PtsByVar.insert(F.Var, Dom->outKey(F.T), {F.Heap, F.T});
  }
  void index(const HptsFact &F) {
    HptsByBaseField.insert(BaseFields.intern(pairKey(F.Base, F.Field)),
                           Dom->outKey(F.T), {F.Heap, F.T});
  }
  void index(const HloadFact &F) {
    HloadByBaseField.insert(BaseFields.intern(pairKey(F.Base, F.Field)),
                            Dom->inKey(F.T), {F.Var, F.T});
  }
  void index(const CallFact &F) {
    CallByInvoke.insert(F.Invoke, Dom->inKey(F.T), {F.Method, F.T});
    CallByCallee.insert(F.Method, Dom->outKey(F.T), {F.Invoke, F.T});
  }
  void index(const ReachFact &F) {
    ReachByMethod[F.Method].push_back(F.CtxtId);
  }
  void index(const GptsFact &F) {
    GptsByGlobal[F.Global].push_back({F.Heap, F.T});
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

  //===--- Checkpointing --------------------------------------------------===//

  bool inRange(const PtsFact &F) const {
    return F.Var < DB.numVars() && F.Heap < DB.numHeaps() &&
           F.T < Dom->size();
  }
  bool inRange(const HptsFact &F) const {
    return F.Base < DB.numHeaps() && F.Field < DB.numFields() &&
           F.Heap < DB.numHeaps() && F.T < Dom->size();
  }
  bool inRange(const HloadFact &F) const {
    return F.Base < DB.numHeaps() && F.Field < DB.numFields() &&
           F.Var < DB.numVars() && F.T < Dom->size();
  }
  bool inRange(const CallFact &F) const {
    return F.Invoke < DB.numInvokes() && F.Method < DB.numMethods() &&
           F.T < Dom->size();
  }
  bool inRange(const ReachFact &F) const {
    return F.Method < DB.numMethods() && F.CtxtId < ReachCtxts->size();
  }
  bool inRange(const GptsFact &F) const {
    return F.Global < DB.numGlobals() && F.Heap < DB.numHeaps() &&
           F.T < Dom->size();
  }

  /// Replays one snapshot section (see tryRestore) and resumes its
  /// worklist at the section's head.
  template <typename Fact>
  std::string restore(const analysis::RelationWords &W, const char *Name) {
    for (std::size_t Row = 0; Row < W.Words.size() / arityOf<Fact>();
         ++Row) {
      const Fact F = decodeRow<Fact>(W, Row);
      if (!inRange(F))
        return std::string("snapshot ") + Name +
               " relation has out-of-range ids";
      if (!insert(F))
        return std::string("snapshot ") + Name +
               " relation has duplicate or subsumed tuples";
    }
    rel<Fact>().Head = W.Head;
    return {};
  }

  std::uint64_t totalDerivations() const {
    return BaseDerivations + Meter.derivations();
  }

  analysis::SolverSnapshot captureSnapshot(TerminationReason Term) {
    analysis::SolverSnapshot S;
    S.BackendTag = analysis::SolverSnapshot::Backend::Native;
    S.Collapse = Collapse;
    S.Config = Cfg;
    S.Fingerprint = Fingerprint;
    S.LayoutHash = LayoutHash;
    Dom->exportInterned(S.DomainWords);
    analysis::encodeCtxtInterner(*ReachCtxts, S.ReachCtxtWords);

    auto Encode = [](const auto &Rel, analysis::RelationWords &Out) {
      analysis::encodeRelation(Rel.Rows, Rel.Head, Out);
    };
    Encode(rel<PtsFact>(), S.Pts);
    Encode(rel<HptsFact>(), S.Hpts);
    Encode(rel<HloadFact>(), S.Hload);
    Encode(rel<CallFact>(), S.Call);
    Encode(rel<ReachFact>(), S.Reach);
    Encode(rel<GptsFact>(), S.Gpts);
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
    while (pendingWork() != 0) {
      // Budget poll at rule-firing granularity: one item's consequences
      // are always fully derived (derive() never aborts mid-item), so a
      // trip leaves the relations a sound prefix of the fixpoint with the
      // unprocessed suffixes counted as pending work — which is also
      // exactly the state a trip-time checkpoint captures.
      if (auto Trip = Meter.poll()) {
        if (Ckpt.enabled())
          writeCheckpoint(*Trip);
        return;
      }
      if (Ckpt.enabled() && Ckpt.EveryDerivations != 0 &&
          totalDerivations() - CkptLastDerivations >= Ckpt.EveryDerivations)
        writeCheckpoint(TerminationReason::Converged);
      fireNext<PtsFact>() || fireNext<HptsFact>() || fireNext<HloadFact>() ||
          fireNext<CallFact>() || fireNext<GptsFact>() ||
          fireNext<ReachFact>();
    }
  }

  /// Pops the head of \p Fact's worklist and fires its rules. \returns
  /// false when that worklist is empty.
  template <typename Fact> bool fireNext() {
    Relation<Fact> &R = rel<Fact>();
    if (R.pending() == 0)
      return false;
    // A copy: the rules fired below append to R.Rows.
    const Fact F = R.Rows[R.Head++];
    ++WorkItems;
    fire(F);
    return true;
  }

  template <typename Fact> void fireAll(const std::vector<Fact> &Seeds) {
    for (const Fact &F : Seeds) {
      ++WorkItems;
      fire(F);
    }
  }

  // The two-premise rules, each written once and called from both of its
  // driving sides, which differ only in the join-index walk that finds
  // the partner. Provenance premise order is the rule's, whichever side
  // drives.

  /// [STORE] pts(X,H,B), store(X,Fl,Z), pts(Z,G,C)
  ///         |- hpts(G,Fl,H, B ; inv(C)).
  void store(const PtsFact &Value, std::uint32_t Field, const PtsFact &Base) {
    if (auto A = comp(Value.T, Dom->inv(Base.T), H, H))
      derive(HptsFact{Base.Heap, Field, Value.Heap, *A}, ProvRule::Store,
             Value, Base, Value.Var);
  }

  /// [PARAM] pts(Z,H,B), actual(Z,I,O), call(I,P,C), formal(Y,P,O)
  ///         |- pts(Y,H, B ; C), with \p Formal = Y.
  void param(const PtsFact &Actual, const CallFact &Call,
             std::uint32_t Formal) {
    if (auto A = comp(Actual.T, Call.T, H, M))
      derive(PtsFact{Formal, Actual.Heap, *A}, ProvRule::Param, Actual, Call,
             Call.Invoke);
  }

  /// [SHORTCUT] (cutshortcut mode) pts(Z,H,B), actual(Z,I,O),
  ///            call(I,P,C), shortcut(P,O), assign_return(I,Y)
  ///            |- pts(Y,H, (B ; C) ; inv(C)) — the actual forwarded
  ///            straight to this call's result, replacing the cut RET
  ///            flow per call site.
  void shortcut(const PtsFact &Actual, const CallFact &Call) {
    if (auto In = comp(Actual.T, Call.T, H, M))
      if (auto A = comp(*In, Dom->inv(Call.T), H, M))
        for (std::uint32_t Y : AssignRetByInvoke[Call.Invoke])
          derive(PtsFact{Y, Actual.Heap, *A}, ProvRule::Shortcut, Actual,
                 Call, Call.Invoke);
  }

  /// [RET] pts(Z,H,B), return(Z,P), call(I,P,C), assign_return(I,Y)
  ///       |- pts(Y,H, B ; inv(C)), with \p InvC = inv(C).
  void ret(const PtsFact &Returned, const CallFact &Call, TransformId InvC) {
    if (auto A = comp(Returned.T, InvC, H, M))
      for (std::uint32_t Y : AssignRetByInvoke[Call.Invoke])
        derive(PtsFact{Y, Returned.Heap, *A}, ProvRule::Ret, Returned, Call,
               Call.Invoke);
  }

  /// [THROW] pts(Z,H,B), throw(Z,P), call(I,P,C), catch(I,Y)
  ///         |- pts(Y,H, B ; inv(C)) — the exceptional return path, with
  ///         \p InvC = inv(C).
  void thrown(const PtsFact &Thrown, const CallFact &Call, TransformId InvC) {
    if (auto A = comp(Thrown.T, InvC, H, M))
      for (std::uint32_t Y : CatchByInvoke[Call.Invoke])
        derive(PtsFact{Y, Thrown.Heap, *A}, ProvRule::Throw, Thrown, Call,
               Call.Invoke);
  }

  /// [IND] hpts(G,Fl,H,B), hload(G,Fl,Y,C) |- pts(Y,H, B ; C).
  void ind(const HptsFact &Stored, const HloadFact &Load) {
    if (auto A = comp(Stored.T, Load.T, H, M))
      derive(PtsFact{Load.Var, Stored.Heap, *A}, ProvRule::Ind, Stored, Load,
             UINT32_MAX);
  }

  /// [GLOAD] gpts(G,H,A), global_load(G,Z,P), reach(P,Mx)
  ///         |- pts(Z,H, retarget(A,Mx)).
  void gload(const GptsFact &Global, const ReachFact &Reach, std::uint32_t Z) {
    derive(PtsFact{Z, Global.Heap,
                   Dom->retarget(Global.T, (*ReachCtxts)[Reach.CtxtId])},
           ProvRule::GLoad, Global, Reach, Global.Global);
  }

  void fire(const PtsFact &F) {
    // [ASSIGN] pts(Z,H,A), assign(Z,Y) |- pts(Y,H,A).
    for (std::uint32_t Y : AssignFrom[F.Var])
      derive(PtsFact{Y, F.Heap, F.T}, ProvRule::Assign, F, NoFact{}, F.Var);

    // [CAST] pts(Z,H,A), cast(Z,Y,T), heap_type(H,T'), subtype(T',T)
    //        |- pts(Y,H,A): an assignment filtered by the cast type.
    for (const auto &[Y, T] : CastByFrom[F.Var])
      if (isSubtype(HeapTypeOf[F.Heap], T))
        derive(PtsFact{Y, F.Heap, F.T}, ProvRule::Cast, F, NoFact{}, F.Var);

    // [LOAD] pts(Y,G,A), load(Y,F,Z) |- hload(G,F,Z,A).
    for (const auto &[Field, To] : LoadByBase[F.Var])
      derive(HloadFact{F.Heap, Field, To, F.T}, ProvRule::Load, F, NoFact{},
             F.Var);

    // Every join below probes with outKey(F.T): this fact is comp's left
    // operand, or (STORE's base side) its inverted right operand, and
    // inKey(inv(X)) == outKey(X). Partners on the right are listed by
    // inKey, inverted ones by outKey.
    const std::uint32_t OutK = Dom->outKey(F.T);

    // [STORE], this fact as the stored value, then as the base.
    for (const auto &[Field, Base] : StoreByValue[F.Var])
      PtsByVar.visit(Base, OutK, [&](JoinIndex::Entry E) {
        store(F, Field, {Base, E.first, E.second});
      });
    for (const auto &[Field, Value] : StoreByBase[F.Var])
      PtsByVar.visit(Value, OutK, [&](JoinIndex::Entry E) {
        store({Value, E.first, E.second}, Field, F);
      });

    // [PARAM] and (cutshortcut mode) [SHORTCUT], this fact as the actual.
    for (const auto &[Invoke, Ord] : ActualByVar[F.Var])
      CallByInvoke.visit(Invoke, OutK, [&](JoinIndex::Entry E) {
        if (auto It = FormalOf.find(pairKey(E.first, Ord));
            It != FormalOf.end())
          param(F, {Invoke, E.first, E.second}, It->second);
      });
    if (CutMode)
      for (const auto &[Invoke, Ord] : ActualByVar[F.Var])
        CallByInvoke.visit(Invoke, OutK, [&](JoinIndex::Entry E) {
          if (CutPlan.hasShortcut(E.first, Ord))
            shortcut(F, {Invoke, E.first, E.second});
        });

    // [RET], this fact as the returned value. In cutshortcut mode the cut
    // (method, return-var) pairs are skipped: their flows are re-delivered
    // per call site by [SHORTCUT].
    for (std::uint32_t P : ReturnByVar[F.Var]) {
      if (CutMode && CutPlan.isCutReturn(P, F.Var))
        continue;
      CallByCallee.visit(P, OutK, [&](JoinIndex::Entry E) {
        ret(F, {E.first, P, E.second}, Dom->inv(E.second));
      });
    }

    // [THROW], this fact as the thrown value.
    for (std::uint32_t P : ThrowByVar[F.Var])
      CallByCallee.visit(P, OutK, [&](JoinIndex::Entry E) {
        thrown(F, {E.first, P, E.second}, Dom->inv(E.second));
      });

    // [GSTORE] pts(X,H,B), global_store(X,G) |- gpts(G,H, globalize(B)).
    if (!GlobalStoreByValue[F.Var].empty()) {
      TransformId GT = Dom->globalize(F.T);
      for (std::uint32_t G : GlobalStoreByValue[F.Var])
        derive(GptsFact{G, F.Heap, GT}, ProvRule::GStore, F, NoFact{}, F.Var);
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
        const CallFact Call{Invoke, It->second,
                            Dom->mergeVirtual(F.Heap, Invoke, F.T)};
        derive(Call, ProvRule::VirtCall, F, NoFact{}, Invoke);
        std::uint32_t ThisY = ThisOf[Call.Method];
        assert(ThisY != facts::InvalidId &&
               "dispatched method has no this variable");
        if (auto A = comp(F.T, Call.T, H, M))
          derive(PtsFact{ThisY, F.Heap, *A}, ProvRule::VirtThis, F, Call,
                 Invoke);
      }
    }
  }

  void fire(const HptsFact &F) {
    // [IND], this fact as the stored value.
    HloadByBaseField.visit(BaseFields.lookup(pairKey(F.Base, F.Field)),
                           Dom->outKey(F.T), [&](JoinIndex::Entry E) {
                             ind(F, {F.Base, F.Field, E.first, E.second});
                           });
  }

  void fire(const HloadFact &F) {
    // [IND], this fact as the load.
    HptsByBaseField.visit(BaseFields.lookup(pairKey(F.Base, F.Field)),
                          Dom->inKey(F.T), [&](JoinIndex::Entry E) {
                            ind({F.Base, F.Field, E.first, E.second}, F);
                          });
  }

  void fire(const CallFact &F) {
    // [REACH] call(I,P,A) |- reach(P, target(A)).
    derive(ReachFact{F.Method, ReachCtxts->intern(Dom->target(F.T))},
           ProvRule::Reach, F, NoFact{}, F.Invoke);

    // Join probes: B ; C (PARAM, SHORTCUT) needs outKey(B) compatible with
    // inKey(C); B ; inv(C) (RET, THROW) with inKey(inv(C)) == outKey(C).
    // The actual Z and the assign-return or catch target Y live in the
    // same caller method and may be one variable, so a rule below can
    // grow the pts list being visited; JoinIndex::visit allows that.
    const std::uint32_t InK = Dom->inKey(F.T), OutK = Dom->outKey(F.T);

    // [PARAM], this fact as the call.
    for (const auto &[Ord, Z] : ActualByInvoke[F.Invoke])
      if (auto It = FormalOf.find(pairKey(F.Method, Ord));
          It != FormalOf.end())
        PtsByVar.visit(Z, InK, [&](JoinIndex::Entry E) {
          param({Z, E.first, E.second}, F, It->second);
        });

    // [SHORTCUT], this fact as the call (cutshortcut mode).
    if (CutMode && !AssignRetByInvoke[F.Invoke].empty())
      for (const auto &[Ord, Z] : ActualByInvoke[F.Invoke])
        if (CutPlan.hasShortcut(F.Method, Ord))
          PtsByVar.visit(Z, InK, [&](JoinIndex::Entry E) {
            shortcut({Z, E.first, E.second}, F);
          });

    // [RET], this fact as the call (cut pairs skipped as above).
    if (!AssignRetByInvoke[F.Invoke].empty()) {
      const TransformId InvC = Dom->inv(F.T);
      for (std::uint32_t Z : ReturnByMethod[F.Method]) {
        if (CutMode && CutPlan.isCutReturn(F.Method, Z))
          continue;
        PtsByVar.visit(Z, OutK, [&](JoinIndex::Entry E) {
          ret({Z, E.first, E.second}, F, InvC);
        });
      }
    }

    // [THROW], this fact as the call.
    if (!CatchByInvoke[F.Invoke].empty()) {
      const TransformId InvC = Dom->inv(F.T);
      for (std::uint32_t Z : ThrowByMethod[F.Method])
        PtsByVar.visit(Z, OutK, [&](JoinIndex::Entry E) {
          thrown({Z, E.first, E.second}, F, InvC);
        });
    }
  }

  void fire(const GptsFact &F) {
    // [GLOAD], this fact as the global's value.
    for (const auto &[Z, P] : GlobalLoadByGlobal[F.Global])
      for (std::uint32_t CtxId : ReachByMethod[P])
        gload(F, {P, CtxId}, Z);
  }

  void fire(const ReachFact &F) {
    const CtxtVec &Ctx = (*ReachCtxts)[F.CtxtId];
    // [GLOAD], this fact as the loading method's reachability.
    for (const auto &[G, Z] : GlobalLoadByMethod[F.Method])
      for (const auto &[Hp, A] : GptsByGlobal[G])
        gload({G, Hp, A}, F, Z);
    // [NEW] assign_new(H,Y,P), reach(P,Mx) |- pts(Y,H, record(Mx)).
    if (!AssignNewByMethod[F.Method].empty()) {
      TransformId A = Dom->record(Ctx);
      for (const auto &[Hp, Y] : AssignNewByMethod[F.Method])
        derive(PtsFact{Y, Hp, A}, ProvRule::New, F, NoFact{}, Hp);
    }
    // [STATIC] static_invoke(I,Q,P), reach(P,Mx)
    //          |- call(I,Q, merge_s(I,Mx)).
    for (const auto &[Invoke, Target] : StaticByMethod[F.Method])
      derive(CallFact{Invoke, Target, Dom->mergeStatic(Invoke, Ctx)},
             ProvRule::Static, F, NoFact{}, Invoke);
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

  // Derived relations and their join indices.
  std::tuple<Relation<PtsFact>, Relation<HptsFact>, Relation<HloadFact>,
             Relation<CallFact>, Relation<ReachFact>, Relation<GptsFact>>
      Rels;
  JoinIndex PtsByVar, HptsByBaseField, HloadByBaseField, CallByInvoke,
      CallByCallee;
  /// Dense owner ids of the (base heap, field) pairs of hpts/hload.
  Interner<std::uint64_t> BaseFields;
  std::vector<std::vector<std::uint32_t>> ReachByMethod;
  std::vector<std::vector<std::pair<std::uint32_t, TransformId>>>
      GptsByGlobal;
  std::uint64_t CompAttempts = 0, CompBottoms = 0;

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
