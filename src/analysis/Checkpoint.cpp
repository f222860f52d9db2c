//===- analysis/Checkpoint.cpp - Solver checkpoint content ----------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Checkpoint.h"

#include "support/Snapshot.h"

#include <cstdio>

namespace ctp {
namespace analysis {

namespace {

// Section tags of the solver snapshot. Tags are part of the on-disk
// format; never renumber, only append.
enum SectionTag : std::uint32_t {
  SecMeta = 1,
  SecDomain = 2,
  SecReachCtxts = 3,
  SecPts = 4,
  SecHpts = 5,
  SecHload = 6,
  SecCall = 7,
  SecReach = 8,
  SecGpts = 9,
  SecSubsumed = 10,
};

void putRelation(snapshot::File &F, std::uint32_t Tag,
                 const RelationWords &R) {
  snapshot::ByteWriter W;
  W.u64(R.Head);
  W.u32Vec(R.Words);
  F.add(Tag).Bytes = W.take();
}

std::string getRelation(const snapshot::File &F, std::uint32_t Tag,
                        const char *Name, unsigned Arity, RelationWords &R) {
  const snapshot::Section *S = F.find(Tag);
  if (!S)
    return std::string("snapshot missing relation section '") + Name + "'";
  snapshot::ByteReader Rd(S->Bytes);
  R.Head = Rd.u64();
  if (!Rd.u32Vec(R.Words) || !Rd.atEnd())
    return std::string("snapshot relation section '") + Name +
           "' is malformed";
  if (R.Words.size() % Arity != 0)
    return std::string("snapshot relation section '") + Name +
           "' is not a whole number of tuples";
  if (R.Head > R.Words.size() / Arity)
    return std::string("snapshot relation section '") + Name +
           "' has head past its tuple count";
  return {};
}

std::string getWords(const snapshot::File &F, std::uint32_t Tag,
                     const char *Name, std::vector<std::uint32_t> &Out) {
  const snapshot::Section *S = F.find(Tag);
  if (!S)
    return std::string("snapshot missing section '") + Name + "'";
  snapshot::ByteReader Rd(S->Bytes);
  if (!Rd.u32Vec(Out) || !Rd.atEnd())
    return std::string("snapshot section '") + Name + "' is malformed";
  return {};
}

} // namespace

std::string checkpointPath(const std::string &Dir) {
  return Dir + "/solver.ctpsnap";
}

std::string writeSnapshot(const SolverSnapshot &S, const std::string &Path) {
  snapshot::File F;

  {
    snapshot::ByteWriter W;
    W.u32(static_cast<std::uint32_t>(S.BackendTag));
    W.u32(S.Collapse ? 1 : 0);
    W.u32(static_cast<std::uint32_t>(S.Config.Abs));
    W.u32(static_cast<std::uint32_t>(S.Config.Flav));
    W.u32(S.Config.MethodDepth);
    W.u32(S.Config.HeapDepth);
    // Solve mode rides behind the original depth fields; snapshots written
    // before it existed fail the atEnd() length check below and cold-start
    // cleanly (the meta section is all-or-nothing, not versioned).
    W.u32(static_cast<std::uint32_t>(S.Config.SolveMode));
    W.u64(S.Fingerprint);
    W.u64(S.LayoutHash);
    W.u64(S.WorkItems);
    W.u64(S.Derivations);
    W.u64(S.Tuples);
    W.u64(S.CollapsedPts);
    W.u64(S.Rounds);
    W.u64(S.DerivedTuples);
    F.add(SecMeta).Bytes = W.take();
  }
  {
    snapshot::ByteWriter W;
    W.u32Vec(S.DomainWords);
    F.add(SecDomain).Bytes = W.take();
  }
  {
    snapshot::ByteWriter W;
    W.u32Vec(S.ReachCtxtWords);
    F.add(SecReachCtxts).Bytes = W.take();
  }
  putRelation(F, SecPts, S.Pts);
  putRelation(F, SecHpts, S.Hpts);
  putRelation(F, SecHload, S.Hload);
  putRelation(F, SecCall, S.Call);
  putRelation(F, SecReach, S.Reach);
  putRelation(F, SecGpts, S.Gpts);
  {
    snapshot::ByteWriter W;
    W.u32Vec(S.SubsumedWords);
    F.add(SecSubsumed).Bytes = W.take();
  }

  F.T.Term = static_cast<std::uint32_t>(S.Term);
  F.T.Iterations = S.Progress.Iterations;
  F.T.Derivations = S.Progress.Derivations;
  F.T.PendingWork = S.Progress.PendingWork;

  return snapshot::writeFile(F, Path);
}

std::string readSnapshot(const std::string &Path, SolverSnapshot &S) {
  snapshot::File F;
  if (std::string Err = snapshot::readFile(Path, F); !Err.empty())
    return Err;

  const snapshot::Section *Meta = F.find(SecMeta);
  if (!Meta)
    return "snapshot missing meta section";
  snapshot::ByteReader Rd(Meta->Bytes);
  std::uint32_t Backend = Rd.u32();
  std::uint32_t Collapse = Rd.u32();
  std::uint32_t Abs = Rd.u32();
  std::uint32_t Flav = Rd.u32();
  std::uint32_t MethodDepth = Rd.u32();
  std::uint32_t HeapDepth = Rd.u32();
  std::uint32_t SolveMode = Rd.u32();
  S.Fingerprint = Rd.u64();
  S.LayoutHash = Rd.u64();
  S.WorkItems = Rd.u64();
  S.Derivations = Rd.u64();
  S.Tuples = Rd.u64();
  S.CollapsedPts = Rd.u64();
  S.Rounds = Rd.u64();
  S.DerivedTuples = Rd.u64();
  if (!Rd.atEnd())
    return "snapshot meta section is malformed";
  if (Backend != static_cast<std::uint32_t>(SolverSnapshot::Backend::Native) &&
      Backend != static_cast<std::uint32_t>(SolverSnapshot::Backend::Datalog))
    return "snapshot meta has unknown back-end tag";
  if (Collapse > 1 || Abs > 1 || Flav > 3 || MethodDepth > ctx::MaxCtxtDepth ||
      HeapDepth > ctx::MaxCtxtDepth || SolveMode > 2)
    return "snapshot meta has out-of-range configuration fields";
  S.BackendTag = static_cast<SolverSnapshot::Backend>(Backend);
  S.Collapse = Collapse != 0;
  S.Config.Abs = static_cast<ctx::Abstraction>(Abs);
  S.Config.Flav = static_cast<ctx::Flavour>(Flav);
  S.Config.MethodDepth = MethodDepth;
  S.Config.HeapDepth = HeapDepth;
  S.Config.SolveMode = static_cast<ctx::Mode>(SolveMode);

  if (std::string E = getWords(F, SecDomain, "domain", S.DomainWords);
      !E.empty())
    return E;
  if (std::string E =
          getWords(F, SecReachCtxts, "reach-contexts", S.ReachCtxtWords);
      !E.empty())
    return E;
  if (std::string E = getRelation(F, SecPts, "pts", 3, S.Pts); !E.empty())
    return E;
  if (std::string E = getRelation(F, SecHpts, "hpts", 4, S.Hpts); !E.empty())
    return E;
  if (std::string E = getRelation(F, SecHload, "hload", 4, S.Hload);
      !E.empty())
    return E;
  if (std::string E = getRelation(F, SecCall, "call", 3, S.Call); !E.empty())
    return E;
  if (std::string E = getRelation(F, SecReach, "reach", 2, S.Reach);
      !E.empty())
    return E;
  if (std::string E = getRelation(F, SecGpts, "gpts", 3, S.Gpts); !E.empty())
    return E;
  if (std::string E = getWords(F, SecSubsumed, "subsumed", S.SubsumedWords);
      !E.empty())
    return E;
  if (S.SubsumedWords.size() % 3 != 0)
    return "snapshot section 'subsumed' is not a whole number of tuples";

  if (F.T.Term > static_cast<std::uint32_t>(TerminationReason::MemoryBudget))
    return "snapshot trailer has unknown termination reason";
  S.Term = static_cast<TerminationReason>(F.T.Term);
  S.Progress.Iterations = static_cast<std::size_t>(F.T.Iterations);
  S.Progress.Derivations = static_cast<std::size_t>(F.T.Derivations);
  S.Progress.PendingWork = static_cast<std::size_t>(F.T.PendingWork);
  return {};
}

void removeSnapshot(const std::string &Dir) {
  if (!Dir.empty())
    std::remove(checkpointPath(Dir).c_str());
}

void encodeCtxtInterner(const Interner<ctx::CtxtVec, ctx::CtxtVecHash> &I,
                        std::vector<std::uint32_t> &Out) {
  Out.clear();
  for (std::uint32_t Id = 0; Id < I.size(); ++Id) {
    const ctx::CtxtVec &V = I[Id];
    Out.push_back(static_cast<std::uint32_t>(V.size()));
    for (std::size_t K = 0; K < V.size(); ++K)
      Out.push_back(V[K]);
  }
}

bool decodeCtxtInterner(const std::vector<std::uint32_t> &Words,
                        Interner<ctx::CtxtVec, ctx::CtxtVecHash> &I) {
  std::size_t Pos = 0;
  std::uint32_t Expected = 0;
  while (Pos < Words.size()) {
    std::uint32_t Len = Words[Pos++];
    if (Len > ctx::CtxtVec::capacity() || Words.size() - Pos < Len)
      return false;
    ctx::CtxtVec V;
    for (std::uint32_t K = 0; K < Len; ++K)
      V.push_back(Words[Pos++]);
    // Pre-interned entries (the datalog front-end seeds the entry context
    // before restoring) must reproduce their original ids too, so a plain
    // equality check covers both fresh and seeded interners.
    if (I.intern(V) != Expected)
      return false;
    ++Expected;
  }
  return true;
}

} // namespace analysis
} // namespace ctp
