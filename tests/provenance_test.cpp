//===- tests/provenance_test.cpp - Derivation-provenance recorder ---------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// The first-derivation recorder's contract: when enabled on a converged
// native run, every derived tuple has exactly one recorded node whose
// premises structurally match its rule; recording is off by default and
// costs nothing; the MaxEdges cap degrades chains to prefixes instead of
// garbage; and a resumed run drops the graph cleanly.
//
//===----------------------------------------------------------------------===//

#include "analysis/Checkpoint.h"
#include "analysis/Provenance.h"
#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "ir/Builder.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <set>
#include <string>
#include <vector>

using namespace ctp;
using namespace ctp::ir;
using analysis::ProvenanceGraph;
using analysis::ProvRel;
using analysis::ProvRule;
using ctx::Abstraction;

namespace {

/// A small program exercising every Figure 3 rule: allocation, assign,
/// cast, field store/load (heap-indirect flow), static call with
/// param/return, virtual dispatch with this-binding, global store/load,
/// and throw/catch.
ir::Program makeRichProgram() {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Sub = B.addClass("Sub", Obj);
  FieldId Fld = B.addField("f");
  GlobalId G = B.addGlobal("gvar");

  // Virtual target: Sub.id(p) { return p; }
  SigId IdSig = B.signature("id", 1);
  MethodId IdM = B.addMethod(Sub, "id", 1);

  B.addReturn(IdM, B.formal(IdM, 0));

  // Static helper: thrower() { t = new Sub; throw t; }
  MethodId Thrower = B.addStaticMethod(Obj, "thrower", 0);
  VarId T = B.addLocal(Thrower, "t");
  B.addNew(Thrower, T, Sub, "hthrown");
  B.addThrow(Thrower, T);

  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  B.addNew(Main, X, Sub, "hx");
  VarId Y = B.addLocal(Main, "y");
  B.addAssign(Main, Y, X);
  VarId C = B.addLocal(Main, "c");
  B.addCast(Main, C, Sub, Y);

  VarId Box = B.addLocal(Main, "box");
  B.addNew(Main, Box, Obj, "hbox");
  B.addStore(Main, Box, Fld, X);
  VarId L = B.addLocal(Main, "l");
  B.addLoad(Main, L, Box, Fld);

  B.addGlobalStore(Main, G, X);
  VarId GL = B.addLocal(Main, "gl");
  B.addGlobalLoad(Main, GL, G);

  VarId R = B.addLocal(Main, "r");
  B.addVirtualCall(Main, X, IdSig, {Y}, R, "callid");

  VarId Caught = B.addLocal(Main, "caught");
  InvokeId ThrowInv = B.addStaticCall(Main, Thrower, {}, InvalidId, "callthrow");
  B.setCatchVar(ThrowInv, Caught);
  return B.take();
}

analysis::Results solveWithProv(const facts::FactDB &DB,
                                const ctx::Config &Cfg,
                                std::size_t MaxEdges = 4u << 20) {
  analysis::SolverOptions SO;
  SO.Provenance.Enabled = true;
  SO.Provenance.MaxEdges = MaxEdges;
  return analysis::solve(DB, Cfg, SO);
}

/// The derived-relation kinds a rule's premises must come from (InvalidNode
/// premises are allowed everywhere: the premise may predate recording only
/// on truncated graphs, but input-only premises are always absent).
struct PremShape {
  bool HasPrem0, HasPrem1;
  ProvRel Rel0, Rel1;
};

PremShape shapeOf(ProvRule R) {
  switch (R) {
  case ProvRule::Entry:
    return {false, false, ProvRel::Pts, ProvRel::Pts};
  case ProvRule::Assign:
  case ProvRule::Cast:
  case ProvRule::Load:
  case ProvRule::GStore:
    return {true, false, ProvRel::Pts, ProvRel::Pts};
  case ProvRule::Store:
    return {true, true, ProvRel::Pts, ProvRel::Pts};
  case ProvRule::Param:
  case ProvRule::Ret:
  case ProvRule::Throw:
  case ProvRule::Shortcut:
    return {true, true, ProvRel::Pts, ProvRel::Call};
  case ProvRule::VirtCall:
    return {true, false, ProvRel::Pts, ProvRel::Pts};
  case ProvRule::VirtThis:
    return {true, true, ProvRel::Pts, ProvRel::Call};
  case ProvRule::Ind:
    return {true, true, ProvRel::Hpts, ProvRel::Hload};
  case ProvRule::Reach:
    return {true, false, ProvRel::Call, ProvRel::Call};
  case ProvRule::GLoad:
    return {true, true, ProvRel::Gpts, ProvRel::Reach};
  case ProvRule::New:
  case ProvRule::Static:
    return {true, false, ProvRel::Reach, ProvRel::Reach};
  }
  return {false, false, ProvRel::Pts, ProvRel::Pts};
}

/// Checks that every tuple of every derived relation has a node, and that
/// every node's edge is structurally consistent with its rule.
void expectCompleteAndConsistent(const analysis::Results &R) {
  ASSERT_NE(R.Prov, nullptr);
  const ProvenanceGraph &G = *R.Prov;
  EXPECT_FALSE(G.truncated());

  std::size_t Tuples = R.Pts.size() + R.Hpts.size() + R.Hload.size() +
                       R.Call.size() + R.Reach.size() + R.Gpts.size();
  EXPECT_EQ(G.size(), Tuples);

  auto CheckAll = [&](ProvRel Rel, auto const &Vec) {
    for (const auto &F : Vec) {
      std::uint32_t N = G.lookup(Rel, analysis::keyOf(F));
      ASSERT_NE(N, ProvenanceGraph::InvalidNode);
      EXPECT_EQ(G.relOf(N), Rel);
      EXPECT_EQ(G.factOf(N), analysis::keyOf(F));
    }
  };
  CheckAll(ProvRel::Pts, R.Pts);
  CheckAll(ProvRel::Hpts, R.Hpts);
  CheckAll(ProvRel::Hload, R.Hload);
  CheckAll(ProvRel::Call, R.Call);
  CheckAll(ProvRel::Reach, R.Reach);
  CheckAll(ProvRel::Gpts, R.Gpts);

  for (std::uint32_t N = 0; N < G.size(); ++N) {
    const ProvenanceGraph::Edge &E = G.edgeOf(N);
    PremShape S = shapeOf(E.Rule);
    if (!S.HasPrem0) {
      EXPECT_EQ(E.Prem0, ProvenanceGraph::InvalidNode);
    }
    if (!S.HasPrem1) {
      EXPECT_EQ(E.Prem1, ProvenanceGraph::InvalidNode);
    }
    // A premise always predates its conclusion (the graph is acyclic by
    // construction) and lives in the relation its rule dictates.
    if (E.Prem0 != ProvenanceGraph::InvalidNode) {
      EXPECT_LT(E.Prem0, N);
      EXPECT_EQ(G.relOf(E.Prem0), S.Rel0) << "rule " << int(E.Rule);
    }
    if (E.Prem1 != ProvenanceGraph::InvalidNode) {
      EXPECT_LT(E.Prem1, N);
      EXPECT_EQ(G.relOf(E.Prem1), S.Rel1) << "rule " << int(E.Rule);
    }
  }
}

TEST(ProvenanceTest, EveryTupleRecordedOnRichProgram) {
  facts::FactDB DB = facts::extract(makeRichProgram());
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    for (const ctx::Config &Cfg :
         {ctx::insensitive(A), ctx::oneCallH(A), ctx::twoObjectH(A)}) {
      analysis::Results R = solveWithProv(DB, Cfg);
      SCOPED_TRACE(Cfg.name());
      expectCompleteAndConsistent(R);
    }
  }
}

TEST(ProvenanceTest, EveryTupleRecordedOnPreset) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::Results R =
      solveWithProv(DB, ctx::twoObjectH(Abstraction::TransformerString));
  expectCompleteAndConsistent(R);
}

TEST(ProvenanceTest, ChainsEndAtAxioms) {
  facts::FactDB DB = facts::extract(makeRichProgram());
  analysis::Results R =
      solveWithProv(DB, ctx::twoObjectH(Abstraction::TransformerString));
  ASSERT_NE(R.Prov, nullptr);
  const ProvenanceGraph &G = *R.Prov;
  // Walking any pts fact far enough always reaches an allocation (every
  // heap in a points-to set was allocated somewhere) and the entry axiom
  // (everything is ultimately derived from reach(main)).
  for (const analysis::PtsFact &F : R.Pts) {
    std::uint32_t N = G.lookup(ProvRel::Pts, analysis::keyOf(F));
    std::vector<std::uint32_t> Chain = G.chain(N, 10000);
    ASSERT_FALSE(Chain.empty());
    EXPECT_EQ(Chain.front(), N);
    bool SawNew = false, SawEntry = false;
    for (std::uint32_t C : Chain) {
      SawNew |= G.edgeOf(C).Rule == ProvRule::New;
      SawEntry |= G.edgeOf(C).Rule == ProvRule::Entry;
    }
    EXPECT_TRUE(SawNew);
    EXPECT_TRUE(SawEntry);
  }
}

TEST(ProvenanceTest, DisabledRunHasNullGraphAndIdenticalResults) {
  facts::FactDB DB = facts::extract(makeRichProgram());
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);
  analysis::Results Off = analysis::solve(DB, Cfg);
  EXPECT_EQ(Off.Prov, nullptr);
  EXPECT_TRUE(Off.Stat.ProvenanceDropped.empty());

  analysis::Results On = solveWithProv(DB, Cfg);
  EXPECT_TRUE(On.Stat.ProvenanceDropped.empty());
  // Recording never perturbs the fixpoint or the evaluation order.
  EXPECT_EQ(Off.Pts.size(), On.Pts.size());
  EXPECT_EQ(Off.Stat.Progress.Derivations, On.Stat.Progress.Derivations);
  EXPECT_EQ(Off.Stat.WorkItems, On.Stat.WorkItems);
}

TEST(ProvenanceTest, TruncationDegradesToPrefix) {
  facts::FactDB DB = facts::extract(makeRichProgram());
  analysis::Results R = solveWithProv(
      DB, ctx::twoObjectH(Abstraction::TransformerString), /*MaxEdges=*/16);
  ASSERT_NE(R.Prov, nullptr);
  const ProvenanceGraph &G = *R.Prov;
  EXPECT_TRUE(G.truncated());
  EXPECT_EQ(G.size(), 16u);
  // Recorded chains stay walkable; unrecorded facts report InvalidNode.
  std::size_t Missing = 0;
  for (const analysis::PtsFact &F : R.Pts) {
    std::uint32_t N = G.lookup(ProvRel::Pts, analysis::keyOf(F));
    if (N == ProvenanceGraph::InvalidNode) {
      ++Missing;
      EXPECT_TRUE(G.chain(N, 100).empty());
      continue;
    }
    std::vector<std::uint32_t> Chain = G.chain(N, 100);
    ASSERT_FALSE(Chain.empty());
    for (std::uint32_t C : Chain)
      EXPECT_LT(C, G.size());
  }
  EXPECT_GT(Missing, 0u);
}

TEST(ProvenanceTest, IndexAndWholeGraphCopyKeepFirstDerivations) {
  // Enough nodes to grow the index several times. The first 64 are hpts
  // facts: a node is filed under (relation, fact), not the fact alone.
  ProvenanceGraph G(/*MaxEdges=*/1u << 20);
  const std::uint32_t N = 5000;
  for (std::uint32_t I = 0; I < N; ++I) {
    ProvRel Rel = I < 64 ? ProvRel::Hpts : ProvRel::Pts;
    analysis::FactKey K{I % 64, I, 7, 0};
    G.note(Rel, K, ProvRule::Assign, I ? I - 1 : ProvenanceGraph::InvalidNode,
           ProvenanceGraph::InvalidNode, I);
    // A later derivation of the same fact is not recorded.
    G.note(Rel, K, ProvRule::Cast, ProvenanceGraph::InvalidNode,
           ProvenanceGraph::InvalidNode, 0);
  }
  ASSERT_EQ(G.size(), N);
  EXPECT_EQ(G.lookup(ProvRel::Pts, analysis::FactKey{0, 0, 7, 0}),
            ProvenanceGraph::InvalidNode);

  ProvenanceGraph Small(N - 1), Copy(N);
  EXPECT_FALSE(Small.copyNodesFrom(G));
  EXPECT_EQ(Small.size(), 0u);
  ASSERT_TRUE(Copy.copyNodesFrom(G));
  for (const ProvenanceGraph *Gr : {&G, &Copy})
    for (std::uint32_t I = 0; I < N; ++I) {
      ProvRel Rel = I < 64 ? ProvRel::Hpts : ProvRel::Pts;
      std::uint32_t Node = Gr->lookup(Rel, analysis::FactKey{I % 64, I, 7, 0});
      ASSERT_EQ(Node, I);
      EXPECT_EQ(Gr->edgeOf(Node).Rule, ProvRule::Assign);
      EXPECT_EQ(Gr->edgeOf(Node).Aux, I);
    }
  // The copy records on past the copied nodes, up to its own cap.
  Copy.note(ProvRel::Call, analysis::FactKey{1, 2, 3, 4}, ProvRule::Static,
            0, ProvenanceGraph::InvalidNode, 1);
  EXPECT_TRUE(Copy.truncated());
  EXPECT_EQ(Copy.size(), N);
}

TEST(ProvenanceTest, ChainRespectsNodeBound) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::Results R =
      solveWithProv(DB, ctx::twoObjectH(Abstraction::TransformerString));
  ASSERT_NE(R.Prov, nullptr);
  for (const analysis::PtsFact &F : R.Pts) {
    std::vector<std::uint32_t> Chain =
        R.Prov->chain(R.Prov->lookup(ProvRel::Pts, analysis::keyOf(F)), 5);
    EXPECT_LE(Chain.size(), 5u);
  }
}

TEST(ProvenanceTest, RenderedChainNamesEntities) {
  facts::FactDB DB = facts::extract(makeRichProgram());
  analysis::Results R =
      solveWithProv(DB, ctx::twoObjectH(Abstraction::TransformerString));
  ASSERT_NE(R.Prov, nullptr);

  // Object.main/l points to hx only through the store/load pair.
  std::uint32_t LVar = facts::InvalidId, HX = facts::InvalidId;
  for (std::uint32_t V = 0; V < DB.numVars(); ++V)
    if (DB.VarNames[V] == "Object.main/l")
      LVar = V;
  for (std::uint32_t H = 0; H < DB.numHeaps(); ++H)
    if (DB.HeapNames[H] == "hx")
      HX = H;
  ASSERT_NE(LVar, facts::InvalidId);
  ASSERT_NE(HX, facts::InvalidId);

  std::uint32_t Node = ProvenanceGraph::InvalidNode;
  for (const analysis::PtsFact &F : R.Pts)
    if (F.Var == LVar && F.Heap == HX)
      Node = R.Prov->lookup(ProvRel::Pts, analysis::keyOf(F));
  ASSERT_NE(Node, ProvenanceGraph::InvalidNode);

  std::string Text = analysis::renderProvenanceChain(
      *R.Prov, Node, DB, *R.Dom, *R.ReachCtxts);
  EXPECT_NE(Text.find("pts(Object.main/l, hx)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("indirect-flow"), std::string::npos) << Text;
  EXPECT_NE(Text.find("allocation"), std::string::npos) << Text;
  EXPECT_NE(Text.find("<="), std::string::npos) << Text;
}

TEST(ProvenanceTest, RenderedShortcutStepNamesItsInvocation) {
  // Cut-shortcut runs derive return flow per call site; the chain that
  // `ctp-lint --explain` prints must name that step and its call site.
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  ctx::Config Cfg;
  ASSERT_TRUE(
      ctx::configByName("cutshortcut", Abstraction::TransformerString, Cfg));
  analysis::Results R = solveWithProv(DB, Cfg);
  ASSERT_NE(R.Prov, nullptr);

  std::uint32_t Node = ProvenanceGraph::InvalidNode;
  for (std::uint32_t N = 0; N < R.Prov->size(); ++N)
    if (R.Prov->edgeOf(N).Rule == ProvRule::Shortcut) {
      Node = N;
      break;
    }
  ASSERT_NE(Node, ProvenanceGraph::InvalidNode) << "no shortcut step";

  std::string Text = analysis::renderProvenanceChain(
      *R.Prov, Node, DB, *R.Dom, *R.ReachCtxts);
  const std::string Want =
      "<= shortcut (at " + DB.InvokeNames[R.Prov->edgeOf(Node).Aux] + ")";
  EXPECT_NE(Text.find(Want), std::string::npos) << Text;
  EXPECT_EQ(Text.find("<= ?"), std::string::npos) << Text;
}

TEST(ProvenanceTest, ResumedRunDropsProvenanceCleanly) {
  std::string Dir = ::testing::TempDir() + "/ctp_prov_resume";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  ctx::Config Cfg = ctx::twoObjectH(Abstraction::TransformerString);

  analysis::SolverOptions Interrupted;
  Interrupted.Provenance.Enabled = true;
  Interrupted.Budget.MaxDerivations = 1000;
  Interrupted.Checkpoint.Dir = Dir;
  analysis::Results First = analysis::solve(DB, Cfg, Interrupted);
  ASSERT_NE(First.Stat.Term, TerminationReason::Converged);
  // The interrupted run itself recorded normally.
  EXPECT_NE(First.Prov, nullptr);

  analysis::SolverSnapshot Snap;
  ASSERT_TRUE(
      analysis::readSnapshot(analysis::checkpointPath(Dir), Snap).empty());

  analysis::SolverOptions Resumed;
  Resumed.Provenance.Enabled = true;
  Resumed.Resume = &Snap;
  analysis::Results Second = analysis::solve(DB, Cfg, Resumed);
  EXPECT_EQ(Second.Stat.Term, TerminationReason::Converged);
  EXPECT_TRUE(Second.Stat.CheckpointError.empty());
  // Dropped entirely — never a half-graph — with the reason reported.
  EXPECT_EQ(Second.Prov, nullptr);
  EXPECT_NE(Second.Stat.ProvenanceDropped.find("resumed"), std::string::npos)
      << Second.Stat.ProvenanceDropped;
  std::filesystem::remove_all(Dir);
}

} // namespace
