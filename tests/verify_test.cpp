//===- tests/verify_test.cpp - Fixpoint certification tests ---------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Positive certification of converged results, and the negative paths:
// each seeded corruption — a dropped tuple, an extra tuple, a swapped
// context, a stale snapshot — must produce a failing check that names
// the counterexample.
//
//===----------------------------------------------------------------------===//

#include "analysis/Checkpoint.h"
#include "analysis/RuleTable.h"
#include "analysis/Solver.h"
#include "analysis/Unify.h"
#include "facts/Extract.h"
#include "support/Posix.h"
#include "support/Verdict.h"
#include "verify/Verify.h"
#include "workload/Generator.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

using namespace ctp;
using ctx::Abstraction;

namespace {

facts::FactDB testDB() {
  // Big enough to exercise every Figure-3 rule (virtual dispatch, field
  // flow, globals, exceptions) while solving in milliseconds.
  workload::WorkloadParams Params;
  Params.DataClasses = 3;
  Params.WrapperChains = 2;
  Params.Factories = 2;
  Params.Containers = 2;
  Params.PolyBases = 1;
  Params.Drivers = 2;
  Params.Scenarios = 4;
  Params.Seed = 7;
  return facts::extract(workload::generate(Params));
}

analysis::Results solveWithProv(const facts::FactDB &DB,
                                const ctx::Config &Cfg) {
  analysis::SolverOptions SO;
  SO.Provenance.Enabled = true;
  return analysis::solve(DB, Cfg, SO);
}

TEST(VerifyTest, CertifiesConvergedResult) {
  facts::FactDB DB = testDB();
  for (const char *Name : {"2-object+H", "1-call+H", "insensitive"}) {
    ctx::Config Cfg;
    ASSERT_TRUE(
        ctx::configByName(Name, Abstraction::TransformerString, Cfg));
    analysis::Results R = solveWithProv(DB, Cfg);
    std::string CE;
    EXPECT_TRUE(verify::checkClosure(DB, R, verify::ClosureOptions(), CE))
        << Name << ": " << CE;
    EXPECT_TRUE(verify::checkSupport(DB, R, CE)) << Name << ": " << CE;
  }
}

TEST(VerifyTest, CertifiesContextStrings) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg;
  ASSERT_TRUE(
      ctx::configByName("1-object", Abstraction::ContextString, Cfg));
  analysis::Results R = solveWithProv(DB, Cfg);
  std::string CE;
  EXPECT_TRUE(verify::checkClosure(DB, R, verify::ClosureOptions(), CE))
      << CE;
  EXPECT_TRUE(verify::checkSupport(DB, R, CE)) << CE;
}

TEST(VerifyTest, ClosureFailsOnDroppedTuple) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::Results R = analysis::solve(DB, Cfg);
  ASSERT_FALSE(R.Pts.empty());
  // Drop one derived conclusion; its premises all survive, so exactly
  // the rule that derived it can still fire.
  analysis::PtsFact Dropped = R.Pts[R.Pts.size() / 2];
  R.Pts.erase(R.Pts.begin() +
              static_cast<std::ptrdiff_t>(R.Pts.size() / 2));
  std::string CE;
  EXPECT_FALSE(verify::checkClosure(DB, R, verify::ClosureOptions(), CE));
  EXPECT_NE(CE.find("can still derive"), std::string::npos) << CE;
  EXPECT_NE(CE.find(DB.VarNames[Dropped.Var]), std::string::npos) << CE;
  EXPECT_NE(CE.find(DB.HeapNames[Dropped.Heap]), std::string::npos) << CE;
}

// --- Keyed closure joins ----------------------------------------------
//
// The closure check joins through partner lists keyed by the side of a
// transformation comp must agree on. The key only filters: a probe must
// still reach every partner that composes, under its own key, in the
// owner's any-key run, and across the whole owner when the driving fact
// has no key. Each case below drops a conclusion that only one keyed rule
// can derive, and only through one of those three paths, so a probe that
// skipped that path would let closure pass.

/// How a probe reaches the partner of a keyed-join instance: in the
/// driving fact's key run (both sides keyed), in the owner's any-key run
/// (only the partner's side is empty), or only by visiting the whole owner
/// (only the driving fact's side is empty). Both sides empty is Other.
enum class JoinPath { KeyRun, AnyRun, WholeOwner, Other };

/// The conclusion a dropped-tuple case removes: a pts fact, or an hpts
/// fact for STORE.
struct KeyedTarget {
  bool Found = false;
  analysis::PtsFact Pts{};
  analysis::HptsFact Hpts{};
};

/// The join side of a transformation, read from its value: \p Left is the
/// side it contributes as comp's first operand (transformer entries,
/// context-string Out), otherwise the second (exits, In). \returns
/// nullopt for an empty transformer side, whose key matches every key.
std::optional<ctx::CtxtVec> joinSide(const analysis::Results &R,
                                     ctx::TransformId T, bool Left) {
  if (R.Config.Abs == Abstraction::ContextString) {
    const ctx::CtxtPair &P = R.Dom->ctxtPair(T);
    return Left ? P.Out : P.In;
  }
  const ctx::Transformer &X = R.Dom->transformer(T);
  const ctx::CtxtVec &Side = Left ? X.Entries : X.Exits;
  if (Side.empty())
    return std::nullopt;
  return Side.takePrefix(1);
}

/// Finds a conclusion of \p Rule (STORE, PARAM, RET or IND) that no other
/// rule can derive and whose every \p Rule instance takes path \p Want,
/// enumerating the rule without any index.
KeyedTarget findKeyedTarget(const facts::FactDB &DB, analysis::Results &R,
                            analysis::ProvRule Rule, JoinPath Want) {
  using analysis::ProvRule;
  const unsigned M = R.Config.MethodDepth, H = R.Config.HeapDepth;
  // Variables the rule is the only way into: every pts-concluding rule
  // writes into the variables one input relation names.
  std::map<std::uint32_t, std::set<ProvRule>> Sinks;
  for (const auto &F : DB.Assigns)
    Sinks[F.To].insert(ProvRule::Assign);
  for (const auto &F : DB.Casts)
    Sinks[F.To].insert(ProvRule::Cast);
  for (const auto &F : DB.Formals)
    Sinks[F.Var].insert(ProvRule::Param);
  for (const auto &F : DB.AssignReturns)
    Sinks[F.To].insert(ProvRule::Ret);
  for (const auto &F : DB.Catches)
    Sinks[F.To].insert(ProvRule::Throw);
  for (const auto &F : DB.ThisVars)
    Sinks[F.Var].insert(ProvRule::VirtThis);
  for (const auto &F : DB.Loads)
    Sinks[F.To].insert(ProvRule::Ind);
  for (const auto &F : DB.GlobalLoads)
    Sinks[F.To].insert(ProvRule::GLoad);
  for (const auto &F : DB.AssignNews)
    Sinks[F.To].insert(ProvRule::New);
  auto OnlyInto = [&](std::uint32_t Y) {
    return Sinks[Y] == std::set<ProvRule>{Rule};
  };

  // Conclusion -> the paths of the instances deriving it.
  std::map<analysis::FactKey, std::set<JoinPath>> Paths;
  auto Note = [&](const analysis::FactKey &K, ctx::TransformId Driver,
                  ctx::TransformId Partner, bool PartnerLeft) {
    const bool Keyed = joinSide(R, Driver, true).has_value();
    const bool PartnerKeyed = joinSide(R, Partner, PartnerLeft).has_value();
    Paths[K].insert(Keyed ? (PartnerKeyed ? JoinPath::KeyRun : JoinPath::AnyRun)
                          : (PartnerKeyed ? JoinPath::WholeOwner
                                          : JoinPath::Other));
  };

  // Plain per-column lists, so the enumeration is exhaustive but not
  // quadratic.
  std::vector<std::vector<analysis::PtsFact>> PtsOf(DB.numVars());
  for (const analysis::PtsFact &F : R.Pts)
    PtsOf[F.Var].push_back(F);
  std::vector<std::vector<analysis::CallFact>> CallsAt(DB.numInvokes()),
      CallsOf(DB.numMethods());
  for (const analysis::CallFact &C : R.Call) {
    CallsAt[C.Invoke].push_back(C);
    CallsOf[C.Method].push_back(C);
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> FormalOf;
  for (const auto &Fm : DB.Formals)
    FormalOf[{Fm.Method, Fm.Ordinal}] = Fm.Var;
  std::vector<std::vector<std::uint32_t>> RetInto(DB.numInvokes());
  for (const auto &AR : DB.AssignReturns)
    RetInto[AR.Invoke].push_back(AR.To);

  if (Rule == ProvRule::Store)
    for (const auto &S : DB.Stores)
      for (const analysis::PtsFact &F : PtsOf[S.From])
        for (const analysis::PtsFact &B : PtsOf[S.Base])
          if (auto A = R.Dom->comp(F.T, R.Dom->inv(B.T), H, H))
            Note(analysis::keyOf(
                     analysis::HptsFact{B.Heap, S.Field, F.Heap, *A}),
                 F.T, B.T, true);
  if (Rule == ProvRule::Param)
    for (const auto &Act : DB.Actuals)
      for (const analysis::PtsFact &F : PtsOf[Act.Var])
        for (const analysis::CallFact &C : CallsAt[Act.Invoke]) {
          auto Y = FormalOf.find({C.Method, Act.Ordinal});
          if (Y != FormalOf.end() && OnlyInto(Y->second))
            if (auto A = R.Dom->comp(F.T, C.T, H, M))
              Note(analysis::keyOf(analysis::PtsFact{Y->second, F.Heap, *A}),
                   F.T, C.T, false);
        }
  if (Rule == ProvRule::Ret)
    for (const auto &Rt : DB.Returns)
      for (const analysis::PtsFact &F : PtsOf[Rt.Var])
        for (const analysis::CallFact &C : CallsOf[Rt.Method])
          for (std::uint32_t Y : RetInto[C.Invoke])
            if (OnlyInto(Y))
              if (auto A = R.Dom->comp(F.T, R.Dom->inv(C.T), H, M))
                Note(analysis::keyOf(analysis::PtsFact{Y, F.Heap, *A}), F.T,
                     C.T, true);
  if (Rule == ProvRule::Ind) {
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<analysis::HloadFact>>
        Loads;
    for (const analysis::HloadFact &L : R.Hload)
      if (OnlyInto(L.Var))
        Loads[{L.Base, L.Field}].push_back(L);
    for (const analysis::HptsFact &F : R.Hpts)
      for (const analysis::HloadFact &L : Loads[{F.Base, F.Field}])
        if (auto A = R.Dom->comp(F.T, L.T, H, M))
          Note(analysis::keyOf(analysis::PtsFact{L.Var, F.Heap, *A}), F.T,
               L.T, false);
  }

  KeyedTarget Out;
  const std::set<JoinPath> Only{Want};
  if (Rule == ProvRule::Store) {
    for (const analysis::HptsFact &F : R.Hpts)
      if (Paths[analysis::keyOf(F)] == Only) {
        Out.Found = true;
        Out.Hpts = F;
        break;
      }
  } else {
    for (const analysis::PtsFact &F : R.Pts)
      if (Paths[analysis::keyOf(F)] == Only) {
        Out.Found = true;
        Out.Pts = F;
        break;
      }
  }
  return Out;
}

/// One dropped-conclusion case: a keyed rule, the probe path that alone
/// derives the dropped conclusion, and an input where one exists.
struct KeyedCase {
  Abstraction Abs;
  analysis::ProvRule Rule;
  JoinPath Want;
  bool OnBloat; // The bloat preset, else testDB().
  const char *Config;
};

TEST(VerifyTest, ClosureFindsDroppedConclusionOfEachKeyedJoin) {
  using analysis::ProvRule;
  constexpr Abstraction CS = Abstraction::ContextString;
  constexpr Abstraction TS = Abstraction::TransformerString;
  constexpr JoinPath Key = JoinPath::KeyRun, Any = JoinPath::AnyRun,
                     All = JoinPath::WholeOwner;
  // Context strings key on whole middles, so only the key run exists.
  // Transformer strings take the other paths wherever a side is empty; a
  // RET partner is a call edge, whose merge always pushes an entry, so
  // RET never meets the any-key run, and no configuration of these inputs
  // has an IND conclusion that only the whole-owner walk reaches.
  const KeyedCase Cases[] = {
      {CS, ProvRule::Store, Key, true, "2-object+H"},
      {CS, ProvRule::Param, Key, true, "2-object+H"},
      {CS, ProvRule::Ret, Key, true, "2-object+H"},
      {CS, ProvRule::Ind, Key, true, "2-object+H"},
      {TS, ProvRule::Store, Key, true, "2-object+H"},
      {TS, ProvRule::Store, Any, false, "2-object+H"},
      {TS, ProvRule::Store, All, true, "2-object+H"},
      {TS, ProvRule::Param, Key, true, "2-object+H"},
      {TS, ProvRule::Param, Any, true, "2-object+H"},
      {TS, ProvRule::Param, All, true, "2-object+H"},
      {TS, ProvRule::Ret, Key, true, "2-object+H"},
      {TS, ProvRule::Ret, All, true, "2-object+H"},
      {TS, ProvRule::Ind, Key, true, "1-call+H"},
      {TS, ProvRule::Ind, Any, true, "2-object+H"},
  };
  const facts::FactDB Bloat =
      facts::extract(workload::generatePreset("bloat"));
  const facts::FactDB Small = testDB();
  for (const KeyedCase &C : Cases) {
    const std::string Case =
        std::string(analysis::ruleName(C.Rule)) +
        (C.Want == Key ? "/key " : C.Want == Any ? "/any-run " : "/owner ") +
        (C.Abs == CS ? "cs " : "ts ") + C.Config;
    const facts::FactDB &DB = C.OnBloat ? Bloat : Small;
    ctx::Config Cfg;
    ASSERT_TRUE(ctx::configByName(C.Config, C.Abs, Cfg)) << Case;
    analysis::Results R = analysis::solve(DB, Cfg);
    ASSERT_EQ(R.Stat.Term, TerminationReason::Converged) << Case;
    KeyedTarget Target = findKeyedTarget(DB, R, C.Rule, C.Want);
    ASSERT_TRUE(Target.Found) << Case << ": no such conclusion";
    if (C.Abs == CS) {
      EXPECT_FALSE(findKeyedTarget(DB, R, C.Rule, Any).Found) << Case;
      EXPECT_FALSE(findKeyedTarget(DB, R, C.Rule, All).Found) << Case;
    }

    std::string Fact;
    if (C.Rule == ProvRule::Store) {
      Fact = DB.HeapNames[Target.Hpts.Base];
      R.Hpts.erase(std::find_if(
          R.Hpts.begin(), R.Hpts.end(), [&](const analysis::HptsFact &F) {
            return analysis::keyOf(F) == analysis::keyOf(Target.Hpts);
          }));
    } else {
      Fact = DB.VarNames[Target.Pts.Var];
      R.Pts.erase(std::find_if(
          R.Pts.begin(), R.Pts.end(), [&](const analysis::PtsFact &F) {
            return analysis::keyOf(F) == analysis::keyOf(Target.Pts);
          }));
    }
    std::string CE;
    EXPECT_FALSE(verify::checkClosure(DB, R, verify::ClosureOptions(), CE))
        << Case;
    const std::string Want =
        std::string(analysis::ruleName(C.Rule)) + " can still derive";
    EXPECT_EQ(CE.compare(0, Want.size(), Want), 0) << Case << ": " << CE;
    EXPECT_NE(CE.find(Fact), std::string::npos) << Case << ": " << CE;
  }
}

TEST(VerifyTest, ClosureCountsNoBottomUnderContextStrings) {
  // Context strings compose exactly when the middles are equal, and the
  // keys are those middles: no probe reaches a partner it cannot compose.
  facts::FactDB DB = facts::extract(workload::generatePreset("bloat"));
  analysis::Results R =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::ContextString));
  verify::ClosureStats Stats;
  verify::ClosureOptions Opts;
  Opts.Stats = &Stats;
  std::string CE;
  ASSERT_TRUE(verify::checkClosure(DB, R, Opts, CE)) << CE;
  EXPECT_GT(Stats.CompAttempts, 0u);
  EXPECT_EQ(Stats.CompBottoms, 0u) << "of " << Stats.CompAttempts;
}

TEST(VerifyTest, ClosureBottomShareAtMostHalfUnderTransformerStrings) {
  // A transformer-string key is only the first letter that `match`
  // cancels, so later letters can still mismatch; on bloat the keyed
  // joins leave about a third of the comp calls ⊥ (unkeyed: 97%).
  facts::FactDB DB = facts::extract(workload::generatePreset("bloat"));
  analysis::Results R =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
  verify::ClosureStats Stats;
  verify::ClosureOptions Opts;
  Opts.Stats = &Stats;
  std::string CE;
  ASSERT_TRUE(verify::checkClosure(DB, R, Opts, CE)) << CE;
  EXPECT_GT(Stats.CompAttempts, 0u);
  EXPECT_LE(2 * Stats.CompBottoms, Stats.CompAttempts)
      << Stats.CompBottoms << " of " << Stats.CompAttempts;
}

TEST(VerifyTest, ClosureFailsOnTruncatedRun) {
  facts::FactDB DB = testDB();
  analysis::SolverOptions SO;
  SO.Budget.MaxDerivations = 50;
  analysis::Results R = analysis::solve(
      DB, ctx::twoObjectH(Abstraction::TransformerString), SO);
  ASSERT_NE(R.Stat.Term, TerminationReason::Converged);
  std::string CE;
  EXPECT_FALSE(verify::checkClosure(DB, R, verify::ClosureOptions(), CE));
  EXPECT_NE(CE.find("did not converge"), std::string::npos) << CE;
}

TEST(VerifyTest, SupportFailsOnExtraTuple) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::Results R = solveWithProv(DB, Cfg);
  ASSERT_FALSE(R.Pts.empty());

  auto Contains = [&](const analysis::PtsFact &F) {
    for (const analysis::PtsFact &G : R.Pts)
      if (G.Var == F.Var && G.Heap == F.Heap && G.T == F.T)
        return true;
    return false;
  };
  // Forge a tuple from existing parts so it renders cleanly but has no
  // recorded derivation.
  analysis::PtsFact Bogus = R.Pts.front();
  bool Found = false;
  for (const analysis::PtsFact &Other : R.Pts) {
    analysis::PtsFact Candidate{Bogus.Var, Other.Heap, Other.T};
    if (!Contains(Candidate)) {
      Bogus = Candidate;
      Found = true;
      break;
    }
  }
  ASSERT_TRUE(Found) << "workload too small to forge an absent tuple";
  R.Pts.push_back(Bogus);

  std::string CE;
  EXPECT_FALSE(verify::checkSupport(DB, R, CE));
  EXPECT_NE(CE.find("no recorded derivation"), std::string::npos) << CE;
  EXPECT_NE(CE.find(DB.VarNames[Bogus.Var]), std::string::npos) << CE;
}

TEST(VerifyTest, SupportFailsOnSwappedContext) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::Results R = solveWithProv(DB, Cfg);

  auto Contains = [&](std::uint32_t Var, std::uint32_t Heap,
                      ctx::TransformId T) {
    for (const analysis::PtsFact &G : R.Pts)
      if (G.Var == Var && G.Heap == Heap && G.T == T)
        return true;
    return false;
  };
  // Rewrite one tuple's transformation to a different interned value:
  // the recorded fact vanishes from its relation and the mutant has no
  // derivation.
  std::size_t Victim = R.Pts.size();
  ctx::TransformId NewT = 0;
  for (std::size_t I = 0; I < R.Pts.size() && Victim == R.Pts.size(); ++I)
    for (const analysis::PtsFact &Other : R.Pts) {
      if (Other.T == R.Pts[I].T)
        continue;
      if (!Contains(R.Pts[I].Var, R.Pts[I].Heap, Other.T)) {
        Victim = I;
        NewT = Other.T;
        break;
      }
    }
  ASSERT_LT(Victim, R.Pts.size())
      << "workload too small to swap a context";
  R.Pts[Victim].T = NewT;

  std::string CE;
  EXPECT_FALSE(verify::checkSupport(DB, R, CE));
  EXPECT_NE(CE.find("absent from its relation"), std::string::npos) << CE;
}

//===----------------------------------------------------------------------===//
// Contextless flavours: positive certification plus the same seeded
// corruptions — a dropped tuple, an extra tuple, a bogus shortcut edge.
//===----------------------------------------------------------------------===//

TEST(VerifyTest, CertifiesCutShortcutResult) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg;
  ASSERT_TRUE(
      ctx::configByName("cutshortcut", Abstraction::TransformerString, Cfg));
  analysis::Results R = solveWithProv(DB, Cfg);
  std::string CE;
  EXPECT_TRUE(verify::checkClosure(DB, R, verify::ClosureOptions(), CE))
      << CE;
  EXPECT_TRUE(verify::checkSupport(DB, R, CE)) << CE;
}

TEST(VerifyTest, CutShortcutClosureFailsOnDroppedTuple) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg;
  ASSERT_TRUE(
      ctx::configByName("cutshortcut", Abstraction::TransformerString, Cfg));
  analysis::Results R = analysis::solve(DB, Cfg);
  ASSERT_FALSE(R.Pts.empty());
  R.Pts.erase(R.Pts.begin() +
              static_cast<std::ptrdiff_t>(R.Pts.size() / 2));
  std::string CE;
  EXPECT_FALSE(verify::checkClosure(DB, R, verify::ClosureOptions(), CE));
  EXPECT_NE(CE.find("can still derive"), std::string::npos) << CE;
}

TEST(VerifyTest, CutShortcutSupportFailsOnBogusShortcutEdge) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg;
  ASSERT_TRUE(
      ctx::configByName("cutshortcut", Abstraction::TransformerString, Cfg));
  analysis::Results R = solveWithProv(DB, Cfg);
  ASSERT_TRUE(R.Prov);

  auto Contains = [&](const analysis::PtsFact &F) {
    for (const analysis::PtsFact &G : R.Pts)
      if (G.Var == F.Var && G.Heap == F.Heap && G.T == F.T)
        return true;
    return false;
  };
  // A SHORTCUT derivation is only well-founded when an actual of the call
  // premise's invocation sits on a cut-plan shortcut. Forge a conclusion
  // whose pts premise variable is no actual of that invocation at all:
  // both premises are genuinely recorded nodes, but nothing grounds the
  // claimed shortcut edge.
  std::uint32_t CallNode = analysis::ProvenanceGraph::InvalidNode;
  analysis::CallFact CF{};
  for (const analysis::CallFact &C : R.Call)
    if ((CallNode = R.Prov->lookup(analysis::ProvRel::Call,
                                   analysis::keyOf(C))) !=
        analysis::ProvenanceGraph::InvalidNode) {
      CF = C;
      break;
    }
  ASSERT_NE(CallNode, analysis::ProvenanceGraph::InvalidNode);

  bool Forged = false;
  for (const analysis::PtsFact &P : R.Pts) {
    std::uint32_t PtsNode =
        R.Prov->lookup(analysis::ProvRel::Pts, analysis::keyOf(P));
    if (PtsNode == analysis::ProvenanceGraph::InvalidNode)
      continue;
    bool IsActual = false;
    for (const auto &A : DB.Actuals)
      IsActual |= A.Invoke == CF.Invoke && A.Var == P.Var;
    if (IsActual)
      continue;
    analysis::PtsFact Bogus{P.Var == 0 ? 1u : 0u, P.Heap, P.T};
    if (Contains(Bogus))
      continue;
    R.Prov->note(analysis::ProvRel::Pts, analysis::keyOf(Bogus),
                 analysis::ProvRule::Shortcut, PtsNode, CallNode,
                 CF.Invoke);
    R.Pts.push_back(Bogus);
    Forged = true;
    break;
  }
  ASSERT_TRUE(Forged) << "workload too small to forge a shortcut edge";

  std::string CE;
  EXPECT_FALSE(verify::checkSupport(DB, R, CE));
  EXPECT_NE(CE.find("grounds the edge"), std::string::npos) << CE;
}

TEST(VerifyTest, CertifiesUnifyViewResult) {
  // The unify flavour certifies its view-backed native run: requesting
  // provenance routes solve() through the native engine over
  // unifyView(DB), and the certificates check against that same view.
  facts::FactDB DB = testDB();
  ctx::Config Cfg;
  ASSERT_TRUE(
      ctx::configByName("unify", Abstraction::TransformerString, Cfg));
  analysis::Results R = solveWithProv(DB, Cfg);
  const facts::FactDB View = analysis::unifyView(DB);
  std::string CE;
  EXPECT_TRUE(verify::checkClosure(View, R, verify::ClosureOptions(), CE))
      << CE;
  EXPECT_TRUE(verify::checkSupport(View, R, CE)) << CE;
}

TEST(VerifyTest, UnifyClosureFailsOnDroppedTuple) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg;
  ASSERT_TRUE(
      ctx::configByName("unify", Abstraction::TransformerString, Cfg));
  analysis::Results R = solveWithProv(DB, Cfg);
  const facts::FactDB View = analysis::unifyView(DB);
  ASSERT_FALSE(R.Pts.empty());
  R.Pts.erase(R.Pts.begin() +
              static_cast<std::ptrdiff_t>(R.Pts.size() / 2));
  std::string CE;
  EXPECT_FALSE(verify::checkClosure(View, R, verify::ClosureOptions(), CE));
  EXPECT_NE(CE.find("can still derive"), std::string::npos) << CE;
}

TEST(VerifyTest, UnifySupportFailsOnExtraTuple) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg;
  ASSERT_TRUE(
      ctx::configByName("unify", Abstraction::TransformerString, Cfg));
  analysis::Results R = solveWithProv(DB, Cfg);
  const facts::FactDB View = analysis::unifyView(DB);
  ASSERT_FALSE(R.Pts.empty());

  auto Contains = [&](const analysis::PtsFact &F) {
    for (const analysis::PtsFact &G : R.Pts)
      if (G.Var == F.Var && G.Heap == F.Heap && G.T == F.T)
        return true;
    return false;
  };
  analysis::PtsFact Bogus = R.Pts.front();
  bool Found = false;
  for (const analysis::PtsFact &Other : R.Pts) {
    analysis::PtsFact Candidate{Bogus.Var, Other.Heap, Other.T};
    if (!Contains(Candidate)) {
      Bogus = Candidate;
      Found = true;
      break;
    }
  }
  ASSERT_TRUE(Found) << "workload too small to forge an absent tuple";
  R.Pts.push_back(Bogus);

  std::string CE;
  EXPECT_FALSE(verify::checkSupport(View, R, CE));
  EXPECT_NE(CE.find("no recorded derivation"), std::string::npos) << CE;
}

TEST(VerifyTest, SnapshotRoundTripPassesBothBackends) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg = ctx::oneCallH(Abstraction::TransformerString);
  std::string Dir = ::testing::TempDir() + "ctp_verify_snap_ok";
  ASSERT_EQ(posix::mkdirs(Dir), "");
  analysis::removeSnapshot(Dir);
  std::string CE;
  EXPECT_TRUE(
      verify::checkSnapshotRoundTrip(DB, Cfg, /*UseDatalog=*/false, Dir, CE))
      << CE;
  EXPECT_TRUE(
      verify::checkSnapshotRoundTrip(DB, Cfg, /*UseDatalog=*/true, Dir, CE))
      << CE;
  analysis::removeSnapshot(Dir);
}

TEST(VerifyTest, SnapshotCheckFailsOnStaleSnapshot) {
  facts::FactDB DB = testDB();
  ctx::Config Cfg = ctx::oneCallH(Abstraction::TransformerString);
  std::string Dir = ::testing::TempDir() + "ctp_verify_snap_stale";
  ASSERT_EQ(posix::mkdirs(Dir), "");
  analysis::removeSnapshot(Dir);

  // A previous "life" leaves a converged snapshot behind...
  analysis::SolverOptions SO;
  SO.Checkpoint.Dir = Dir;
  SO.Checkpoint.KeepOnConverge = true;
  analysis::Results Old = analysis::solve(DB, Cfg, SO);
  ASSERT_EQ(Old.Stat.CheckpointError, "");

  // ...then the fact base changes under it. The round-trip check must
  // reject the stale snapshot instead of resuming from it.
  facts::FactDB Mutated = DB;
  facts::AssignFact Extra;
  Extra.From = 0;
  Extra.To = Mutated.numVars() > 1 ? 1 : 0;
  Mutated.Assigns.push_back(Extra);

  std::string CE;
  EXPECT_FALSE(verify::checkSnapshotRoundTrip(Mutated, Cfg,
                                              /*UseDatalog=*/false, Dir, CE));
  EXPECT_FALSE(CE.empty());
  analysis::removeSnapshot(Dir);
}

TEST(VerifyTest, VerifyFactDBEndToEnd) {
  facts::FactDB DB = testDB();
  verify::VerifyOptions Opts;
  Opts.Configs = {"1-call+H", "1-call", "insensitive"};
  Opts.Samples = 4;
  verdict::Report Report;
  EXPECT_TRUE(verify::verifyFactDB(DB, "gen", Opts, Report));
  EXPECT_TRUE(Report.allPassed());
  // Per config: closure+support+differential+closure(datalog) rows; plus
  // the monotonic pairs (1-call+H <= 1-call and the two insensitive
  // comparisons), oracle rows, and a skipped snapshot row.
  EXPECT_GT(Report.checks().size(), 12u);

  bool SawMonotonic = false, SawOracle = false, SawDifferential = false;
  for (const verdict::Check &C : Report.checks()) {
    SawMonotonic |= C.Name == "monotonic";
    SawOracle |= C.Name == "oracle";
    SawDifferential |= C.Name == "differential";
  }
  EXPECT_TRUE(SawMonotonic);
  EXPECT_TRUE(SawOracle);
  EXPECT_TRUE(SawDifferential);

  // The rendered report is deterministic and round-trips the summary.
  std::string Tsv = Report.renderTsv();
  EXPECT_NE(Tsv.find("summary\t-\tpass"), std::string::npos);
  EXPECT_EQ(Tsv, Report.renderTsv());
}

TEST(VerifyTest, VerifyFactDBReportsCorruption) {
  // End-to-end negative: an unknown configuration name yields a failing
  // config row, not a crash or a silent skip.
  facts::FactDB DB = testDB();
  verify::VerifyOptions Opts;
  Opts.Configs = {"3-object"};
  verdict::Report Report;
  EXPECT_FALSE(verify::verifyFactDB(DB, "gen", Opts, Report));
  ASSERT_EQ(Report.checks().size(), 1u);
  EXPECT_EQ(Report.checks()[0].Name, "config");
  EXPECT_EQ(Report.checks()[0].St, verdict::Status::Fail);
}

} // namespace
