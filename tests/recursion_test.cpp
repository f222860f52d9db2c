//===- tests/recursion_test.cpp - Recursive programs ----------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Recursive call cycles produce method contexts of unbounded length
// (Section 4: "a finite abstraction of context transformations requires
// some form of approximation"). These tests pin down that k-limiting
// makes both abstractions terminate on recursion, stay sound w.r.t. the
// CI oracle, and keep identical precision.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "cfl/Oracle.h"
#include "facts/Extract.h"
#include "ir/Builder.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace ctp;
using namespace ctp::ir;
using ctx::Abstraction;
using ctx::Config;

namespace {

using U32s = std::vector<std::uint32_t>;

std::vector<Config> allConfigs(Abstraction A) {
  return {ctx::insensitive(A), ctx::oneCall(A), ctx::oneCallH(A),
          ctx::oneObject(A), ctx::twoObjectH(A), ctx::twoTypeH(A),
          Config{A, ctx::Flavour::CallSite, 2, 1},
          Config{A, ctx::Flavour::Object, 3, 2}};
}

void expectSoundAndEqual(const facts::FactDB &DB) {
  cfl::OracleResult O = cfl::solveInsensitive(DB);
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString})
    for (const Config &Cfg : allConfigs(A)) {
      analysis::Results R = analysis::solve(DB, Cfg);
      auto Ci = R.ciPts();
      EXPECT_TRUE(std::includes(O.Pts.begin(), O.Pts.end(), Ci.begin(),
                                Ci.end()))
          << Cfg.name();
    }
  for (const Config &CsCfg : allConfigs(Abstraction::ContextString)) {
    if (CsCfg.Flav == ctx::Flavour::Type)
      continue;
    Config TsCfg = CsCfg;
    TsCfg.Abs = Abstraction::TransformerString;
    EXPECT_EQ(analysis::solve(DB, CsCfg).ciPts(),
              analysis::solve(DB, TsCfg).ciPts())
        << CsCfg.name();
  }
}

TEST(RecursionTest, DirectStaticRecursion) {
  // rec(p) { t = rec(p); return p; }  — infinite call string, finite
  // k-limited contexts.
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Rec = B.addStaticMethod(Obj, "rec", 1);
  VarId T = B.addLocal(Rec, "t");
  InvokeId Self =
      B.addStaticCall(Rec, Rec, {B.formal(Rec, 0)}, T, "self");
  (void)Self;
  B.addReturn(Rec, B.formal(Rec, 0));
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  HeapId H = B.addNew(Main, X, Obj, "h");
  VarId Y = B.addLocal(Main, "y");
  B.addStaticCall(Main, Rec, {X}, Y, "c0");
  facts::FactDB DB = facts::extract(B.take());

  expectSoundAndEqual(DB);
  analysis::Results R = analysis::solve(
      DB, Config{Abstraction::TransformerString, ctx::Flavour::CallSite,
                 2, 1});
  EXPECT_EQ(R.pointsTo(Y), (U32s{H}));
  EXPECT_EQ(R.pointsTo(T), (U32s{H}));
}

TEST(RecursionTest, SelfCallPassingItsOwnFormalWithProvenance) {
  // rec(p) { t = rec(p); return t; } — the self call passes the formal p
  // back to p ([PARAM] joins pts(p) while adding to pts(p)) and assigns
  // its result to the returned t ([RET] joins pts(t) while adding to
  // pts(t)). The second program also returns p so that t points
  // somewhere. Provenance reads each partner after the add, which is
  // where a join that iterated a growing partner list read freed memory.
  for (bool AlsoReturnFormal : {false, true}) {
    Builder B;
    TypeId Obj = B.addClass("Object");
    MethodId Rec = B.addStaticMethod(Obj, "rec", 1);
    VarId P = B.formal(Rec, 0);
    VarId T = B.addLocal(Rec, "t");
    B.addStaticCall(Rec, Rec, {P}, T, "self");
    B.addReturn(Rec, T);
    if (AlsoReturnFormal)
      B.addReturn(Rec, P);
    MethodId Main = B.addStaticMethod(Obj, "main", 0);
    B.setMain(Main);
    VarId X = B.addLocal(Main, "x");
    HeapId H = B.addNew(Main, X, Obj, "h");
    VarId Y = B.addLocal(Main, "y");
    B.addStaticCall(Main, Rec, {X}, Y, "c0");
    facts::FactDB DB = facts::extract(B.take());

    analysis::SolverOptions Opts;
    Opts.Provenance.Enabled = true;
    const U32s Returned = AlsoReturnFormal ? U32s{H} : U32s{};
    for (Abstraction A :
         {Abstraction::ContextString, Abstraction::TransformerString})
      for (const Config &Cfg : allConfigs(A)) {
        if (Cfg.Flav != ctx::Flavour::CallSite)
          continue;
        analysis::Results R = analysis::solve(DB, Cfg, Opts);
        ASSERT_TRUE(R.Prov) << Cfg.name();
        EXPECT_EQ(R.pointsTo(P), (U32s{H})) << Cfg.name();
        EXPECT_EQ(R.pointsTo(T), Returned) << Cfg.name();
        EXPECT_EQ(R.pointsTo(Y), Returned) << Cfg.name();
      }
  }
}

TEST(RecursionTest, MutualRecursion) {
  // even(p) calls odd(p), odd(p) calls even(p); both return p.
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Even = B.addStaticMethod(Obj, "even", 1);
  MethodId Odd = B.addStaticMethod(Obj, "odd", 1);
  VarId ET = B.addLocal(Even, "t");
  B.addStaticCall(Even, Odd, {B.formal(Even, 0)}, ET, "eo");
  B.addReturn(Even, ET);
  B.addReturn(Even, B.formal(Even, 0));
  VarId OT = B.addLocal(Odd, "t");
  B.addStaticCall(Odd, Even, {B.formal(Odd, 0)}, OT, "oe");
  B.addReturn(Odd, OT);
  B.addReturn(Odd, B.formal(Odd, 0));
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  HeapId H = B.addNew(Main, X, Obj, "h");
  VarId Y = B.addLocal(Main, "y");
  B.addStaticCall(Main, Even, {X}, Y, "c0");
  facts::FactDB DB = facts::extract(B.take());

  expectSoundAndEqual(DB);
  analysis::Results R =
      analysis::solve(DB, ctx::oneCallH(Abstraction::TransformerString));
  EXPECT_EQ(R.pointsTo(Y), (U32s{H}));
}

TEST(RecursionTest, RecursiveVirtualDispatch) {
  // node.walk() recurses on this — object-sensitive contexts stay at the
  // receiver's allocation site; no growth.
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Node = B.addClass("Node", Obj);
  MethodId Walk = B.addMethod(Node, "walk", 0);
  SigId WalkSig = B.signature("walk", 0);
  VarId WT = B.addLocal(Walk, "t");
  B.addVirtualCall(Walk, B.thisVar(Walk), WalkSig, {}, WT, "recurse");
  VarId Fresh = B.addLocal(Walk, "fresh");
  HeapId HF = B.addNew(Walk, Fresh, Obj, "hf");
  B.addReturn(Walk, Fresh);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId N = B.addLocal(Main, "n");
  B.addNew(Main, N, Node, "hn");
  VarId Out = B.addLocal(Main, "out");
  B.addVirtualCall(Main, N, WalkSig, {}, Out, "start");
  facts::FactDB DB = facts::extract(B.take());

  expectSoundAndEqual(DB);
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    analysis::Results R = analysis::solve(DB, ctx::twoObjectH(A));
    EXPECT_EQ(R.pointsTo(Out), (U32s{HF}));
    EXPECT_EQ(R.pointsTo(WT), (U32s{HF}));
  }
}

TEST(RecursionTest, RecursiveListConstruction) {
  // build(prev) { n = new Node; n.next = prev; r = build(n); return r; }
  // plus a traversal load — heap-recursive data, call-recursive code.
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Node = B.addClass("Node", Obj);
  FieldId Next = B.addField("next");
  MethodId Build = B.addStaticMethod(Obj, "build", 1);
  VarId N = B.addLocal(Build, "n");
  HeapId HN = B.addNew(Build, N, Node, "hnode");
  B.addStore(Build, N, Next, B.formal(Build, 0));
  VarId R = B.addLocal(Build, "r");
  B.addStaticCall(Build, Build, {N}, R, "grow");
  B.addReturn(Build, R);
  B.addReturn(Build, N);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId Seed = B.addLocal(Main, "seed");
  HeapId HSeed = B.addNew(Main, Seed, Node, "hseed");
  VarId List = B.addLocal(Main, "list");
  B.addStaticCall(Main, Build, {Seed}, List, "c0");
  VarId Walk = B.addLocal(Main, "walk");
  B.addLoad(Main, Walk, List, Next);
  facts::FactDB DB = facts::extract(B.take());

  expectSoundAndEqual(DB);
  analysis::Results Res =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
  // The list head is always an hnode object; following next reaches
  // either another hnode or the seed.
  EXPECT_EQ(Res.pointsTo(List), (U32s{HN}));
  EXPECT_EQ(Res.pointsTo(Walk), (U32s{HN, HSeed}));
}

TEST(RecursionTest, DeepDepthConfigsStillTerminate) {
  // Recursion at the maximum supported depth (m = 4) — the truncation
  // wildcard is what guarantees a finite domain.
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Rec = B.addStaticMethod(Obj, "rec", 1);
  VarId T = B.addLocal(Rec, "t");
  B.addStaticCall(Rec, Rec, {B.formal(Rec, 0)}, T, "self");
  B.addReturn(Rec, B.formal(Rec, 0));
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  HeapId H = B.addNew(Main, X, Obj, "h");
  VarId Y = B.addLocal(Main, "y");
  B.addStaticCall(Main, Rec, {X}, Y, "c0");
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    Config Cfg{A, ctx::Flavour::CallSite, 4, 4};
    ASSERT_EQ(Cfg.validate(), "");
    analysis::Results R = analysis::solve(DB, Cfg);
    EXPECT_EQ(R.pointsTo(Y), (U32s{H})) << Cfg.name();
  }
}

} // namespace
