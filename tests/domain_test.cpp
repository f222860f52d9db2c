//===- tests/domain_test.cpp - Figure-4 flavour policy tests --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Checks record / merge / merge_s / target under each abstraction and each
// flavour against the definitions of Figure 4, and the join keys the
// solver's indexes rely on.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "ctx/Domain.h"
#include "facts/Extract.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

using namespace ctp;
using namespace ctp::ctx;

namespace {

CtxtVec vec(std::initializer_list<CtxtElem> E) {
  CtxtVec V;
  for (CtxtElem X : E)
    V.push_back(X);
  return V;
}

// Heap site 0 belongs to class 5; heap site 1 to class 6.
std::vector<std::uint32_t> classTable() { return {5, 6}; }

// The transformer-string join key of a call-site letter.
std::uint32_t invokeKey(std::uint32_t Invoke) { return elemOfEntity(Invoke); }

TEST(DomainTest, ContextStringRecord) {
  Config Cfg = oneCallH(Abstraction::ContextString); // m = 1, h = 1.
  auto D = makeDomain(Cfg, classTable());
  CtxtVec M = vec({elemOfEntity(3)});
  TransformId T = D->record(M);
  const CtxtPair &P = D->ctxtPair(T);
  EXPECT_EQ(P.In, M);
  EXPECT_EQ(P.Out, M);
}

TEST(DomainTest, TransformerRecordIsIdentity) {
  auto D = makeDomain(twoObjectH(Abstraction::TransformerString),
                      classTable());
  TransformId T = D->record(vec({EntryElem}));
  EXPECT_TRUE(D->transformer(T).isIdentity());
  // Same id regardless of the reach context — the compact representation.
  EXPECT_EQ(T, D->record(vec({elemOfEntity(9), EntryElem})));
}

TEST(DomainTest, CallSiteMergeStatic) {
  // merge_s^c(I, M) = (M, I·prefix_{m-1}(M)).
  Config Cfg{Abstraction::ContextString, Flavour::CallSite, 2, 0};
  auto D = makeDomain(Cfg, classTable());
  CtxtVec M = vec({elemOfEntity(1), EntryElem});
  TransformId T = D->mergeStatic(/*Invoke=*/4, M);
  const CtxtPair &P = D->ctxtPair(T);
  EXPECT_EQ(P.In, M);
  EXPECT_EQ(P.Out, vec({elemOfEntity(4), elemOfEntity(1)}));
  // target is the callee context.
  EXPECT_EQ(D->target(T), P.Out);
}

TEST(DomainTest, CallSiteMergeStaticTransformer) {
  // merge_s^t(I, _) = Î, independent of the reach context.
  Config Cfg{Abstraction::TransformerString, Flavour::CallSite, 2, 0};
  auto D = makeDomain(Cfg, classTable());
  TransformId T = D->mergeStatic(4, vec({EntryElem}));
  const Transformer &Tr = D->transformer(T);
  EXPECT_TRUE(Tr.Exits.empty());
  EXPECT_FALSE(Tr.Wild);
  EXPECT_EQ(Tr.Entries, vec({elemOfEntity(4)}));
  EXPECT_EQ(T, D->mergeStatic(4, vec({elemOfEntity(8), EntryElem})));
}

TEST(DomainTest, ObjectMergeStaticIsPrefixFilter) {
  // merge_s^t(I, M) = M̌·M̂ under object sensitivity (the N·N̂ trick).
  auto D = makeDomain(twoObjectH(Abstraction::TransformerString),
                      classTable());
  CtxtVec M = vec({elemOfEntity(0), EntryElem});
  TransformId T = D->mergeStatic(4, M);
  const Transformer &Tr = D->transformer(T);
  EXPECT_EQ(Tr.Exits, M);
  EXPECT_EQ(Tr.Entries, M);
  EXPECT_FALSE(Tr.Wild);
  EXPECT_EQ(D->target(T), M);
}

TEST(DomainTest, ObjectMergeVirtualContextString) {
  // merge^c(H, I, (H', M)) = (M, H·H') with h = 1, m = 2.
  auto D = makeDomain(twoObjectH(Abstraction::ContextString), classTable());
  // Receiver pts transformation: heap ctx [e9], method ctx [e9, entry].
  CtxtVec Hp = vec({elemOfEntity(9)});
  CtxtVec Mc = vec({elemOfEntity(9), EntryElem});
  // Intern the pair by running it through record on an equivalent path:
  // build via comp of record? Simpler: record gives (prefix_1(M), M).
  TransformId B = D->record(Mc); // (prefix_1 = [e9], [e9, entry]).
  TransformId C = D->mergeVirtual(/*Heap=*/1, /*Invoke=*/7, B);
  const CtxtPair &P = D->ctxtPair(C);
  EXPECT_EQ(P.In, Mc);
  EXPECT_EQ(P.Out, vec({elemOfEntity(1), elemOfEntity(9)}));
  (void)Hp;
}

TEST(DomainTest, ObjectMergeVirtualTransformer) {
  // merge^t(H, I, Ǎ·w·B̂) = B̌·w·Â·Ĥ: exits = entries(B), entries = H·A.
  auto D = makeDomain(twoObjectH(Abstraction::TransformerString),
                      classTable());
  Transformer B;
  B.Exits = vec({elemOfEntity(3)});   // A — receiver's heap context path.
  B.Entries = vec({elemOfEntity(4)}); // B.
  // Intern B through compose: record ∘ ... — instead reach inside: use
  // comp with identity to intern an arbitrary transformer is not exposed,
  // so drive it through mergeVirtual on the identity and compose by hand.
  // Here we check the policy directly through the public surface:
  TransformId Eps = D->record(vec({EntryElem}));
  // With B = ε: merge = (exits ε-entries = [], entries = [H]).
  TransformId C = D->mergeVirtual(/*Heap=*/0, /*Invoke=*/7, Eps);
  const Transformer &Tc = D->transformer(C);
  EXPECT_TRUE(Tc.Exits.empty());
  EXPECT_EQ(Tc.Entries, vec({elemOfEntity(0)}));
  EXPECT_FALSE(Tc.Wild);
}

TEST(DomainTest, TypeMergeUsesClassOfHeap) {
  auto D = makeDomain(twoTypeH(Abstraction::TransformerString),
                      classTable());
  TransformId Eps = D->record(vec({EntryElem}));
  TransformId C = D->mergeVirtual(/*Heap=*/1, /*Invoke=*/7, Eps);
  // classOf(heap 1) = type 6.
  EXPECT_EQ(D->transformer(C).Entries, vec({elemOfEntity(6)}));
}

TEST(DomainTest, CallSiteMergeVirtualTransformer) {
  // merge^t(H, I, Ǎ·w·B̂) = trunc_{m,m}(B̌·B̂·Î): exits = entries,
  // entries = I·entries.
  Config Cfg{Abstraction::TransformerString, Flavour::CallSite, 2, 1};
  auto D = makeDomain(Cfg, classTable());
  TransformId Eps = D->record(vec({EntryElem}));
  TransformId C = D->mergeVirtual(0, /*Invoke=*/7, Eps);
  const Transformer &Tc = D->transformer(C);
  EXPECT_TRUE(Tc.Exits.empty());
  EXPECT_EQ(Tc.Entries, vec({elemOfEntity(7)}));
}

TEST(DomainTest, CompMemoizationIsStable) {
  auto D = makeDomain(oneCallH(Abstraction::TransformerString),
                      classTable());
  TransformId Eps = D->record(vec({EntryElem}));
  TransformId C = D->mergeStatic(2, vec({EntryElem}));
  auto R1 = D->comp(Eps, C, 1, 1);
  auto R2 = D->comp(Eps, C, 1, 1);
  ASSERT_TRUE(R1.has_value());
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(*R1, *R2);
}

TEST(DomainTest, CompBottomIsFiltered) {
  auto D = makeDomain(oneCallH(Abstraction::TransformerString),
                      classTable());
  TransformId C2 = D->mergeStatic(2, vec({EntryElem})); // Î2
  TransformId C3 = D->mergeStatic(3, vec({EntryElem})); // Î3
  TransformId Inv3 = D->inv(C3);                        // Ǐ3
  // Î2 ; Ǐ3 = ⊥.
  EXPECT_FALSE(D->comp(C2, Inv3, 1, 1).has_value());
  // Repeat to exercise the memoized-⊥ path.
  EXPECT_FALSE(D->comp(C2, Inv3, 1, 1).has_value());
}

TEST(DomainTest, ContextStringJoinKeysAreTheMiddles) {
  auto D = makeDomain(oneCallH(Abstraction::ContextString), classTable());
  CtxtVec M1 = vec({elemOfEntity(1)}), M2 = vec({elemOfEntity(2)});
  TransformId A = D->mergeStatic(1, vec({EntryElem})); // ([entry], [1])
  TransformId B = D->record(M1);                       // ([1], [1])
  TransformId C = D->record(M2);                       // ([2], [2])
  EXPECT_EQ(D->outKey(A), D->inKey(B));
  EXPECT_TRUE(D->comp(A, B, 1, 1).has_value());
  EXPECT_NE(D->outKey(A), D->inKey(C));
  EXPECT_FALSE(D->comp(A, C, 1, 1).has_value());
  for (TransformId X : {A, B, C})
    EXPECT_EQ(D->inKey(D->inv(X)), D->outKey(X));
}

TEST(DomainTest, TransformerJoinKeysAreTheFirstLetters) {
  auto D = makeDomain(oneCallH(Abstraction::TransformerString),
                      classTable());
  TransformId Eps = D->record(vec({EntryElem}));
  TransformId C2 = D->mergeStatic(2, vec({EntryElem})); // Î2
  EXPECT_EQ(D->outKey(Eps), Domain::AnyKey);
  EXPECT_EQ(D->inKey(Eps), Domain::AnyKey);
  EXPECT_EQ(D->outKey(C2), invokeKey(2));
  EXPECT_EQ(D->inKey(C2), Domain::AnyKey);
  TransformId Inv2 = D->inv(C2); // Ǐ2
  EXPECT_EQ(D->inKey(Inv2), D->outKey(C2));
  EXPECT_EQ(D->outKey(Inv2), Domain::AnyKey);
}

// Key soundness, over every id pair of a domain solved on bloat (the
// preset with the most ⊥ candidates): comp(A, B) ≠ ⊥ implies that
// outKey(A) and inKey(B) are compatible, and under context strings the
// converse holds too. The pairs are composed on the interned values, so
// the check neither grows nor memoizes into the domain.
TEST(DomainTest, JoinKeysAreSoundOnASolvedDomain) {
  facts::FactDB DB = facts::extract(workload::generatePreset("bloat"));
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    analysis::Results R = analysis::solve(DB, twoObjectH(A));
    const Domain &D = *R.Dom;
    const auto N = static_cast<TransformId>(D.size());
    ASSERT_GT(N, 1000u);
    std::size_t Composable = 0, Missed = 0, Spurious = 0;
    for (TransformId X = 0; X < N; ++X)
      for (TransformId Y = 0; Y < N; ++Y) {
        bool Composes =
            A == Abstraction::ContextString
                ? composePairs(D.ctxtPair(X), D.ctxtPair(Y)).has_value()
                : compose(D.transformer(X), D.transformer(Y)).has_value();
        bool Keyed = Domain::keysCompatible(D.outKey(X), D.inKey(Y));
        Composable += Composes;
        Missed += Composes && !Keyed;
        Spurious += !Composes && Keyed;
      }
    EXPECT_GT(Composable, 0u);
    EXPECT_EQ(Missed, 0u) << "composable pairs the keys would skip";
    if (A == Abstraction::ContextString) {
      EXPECT_EQ(Spurious, 0u) << "context-string keys must be exact";
    }
    for (TransformId X = 0; X < N; ++X)
      ASSERT_EQ(R.Dom->inKey(R.Dom->inv(X)), D.outKey(X)) << X;
  }
}

TEST(DomainTest, InsensitiveConfigCollapsesEverything) {
  auto D = makeDomain(insensitive(Abstraction::TransformerString), {});
  CtxtVec Empty;
  TransformId R1 = D->record(Empty);
  TransformId C = D->mergeStatic(3, Empty);
  // With m = 0, merge_s truncates Î to a pure wildcard.
  const Transformer &Tc = D->transformer(C);
  EXPECT_TRUE(Tc.Exits.empty());
  EXPECT_TRUE(Tc.Entries.empty());
  EXPECT_TRUE(Tc.Wild);
  EXPECT_TRUE(D->transformer(R1).isIdentity());
}

} // namespace
