//===- analysis/Provenance.cpp - First-derivation provenance --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Provenance.h"
#include "analysis/RuleTable.h"

#include <sstream>
#include <unordered_set>

using namespace ctp;
using namespace ctp::analysis;

std::vector<std::uint32_t> ProvenanceGraph::chain(std::uint32_t Node,
                                                  std::size_t MaxNodes) const {
  std::vector<std::uint32_t> Out;
  if (Node == InvalidNode || Node >= Nodes.size())
    return Out;
  std::unordered_set<std::uint32_t> Seen;
  std::vector<std::uint32_t> Stack{Node};
  while (!Stack.empty() && Out.size() < MaxNodes) {
    std::uint32_t Cur = Stack.back();
    Stack.pop_back();
    if (Cur == InvalidNode || Cur >= Nodes.size() || !Seen.insert(Cur).second)
      continue;
    Out.push_back(Cur);
    // Pre-order with Prem0 first: push Prem1 below Prem0 on the stack.
    Stack.push_back(Nodes[Cur].E.Prem1);
    Stack.push_back(Nodes[Cur].E.Prem0);
  }
  return Out;
}

namespace {

std::string auxName(AuxKind Kind, std::uint32_t Aux, const facts::FactDB &DB) {
  auto Name = [&](const std::vector<std::string> &Tbl) {
    return Aux < Tbl.size() ? Tbl[Aux] : std::string("?");
  };
  switch (Kind) {
  case AuxKind::Var:
    return Name(DB.VarNames);
  case AuxKind::Invoke:
    return Name(DB.InvokeNames);
  case AuxKind::Global:
    return Name(DB.GlobalNames);
  case AuxKind::Heap:
    return Name(DB.HeapNames);
  case AuxKind::None:
    return {};
  }
  return {};
}

std::string factText(const ProvenanceGraph &G, std::uint32_t Node,
                     const facts::FactDB &DB, const ctx::Domain &Dom,
                     const Interner<ctx::CtxtVec, ctx::CtxtVecHash> &Ctxts) {
  const FactKey &K = G.factOf(Node);
  auto Name = [](const std::vector<std::string> &Tbl, std::uint32_t Id) {
    return Id < Tbl.size() ? Tbl[Id] : std::string("?");
  };
  std::ostringstream S;
  switch (G.relOf(Node)) {
  case ProvRel::Pts:
    S << "pts(" << Name(DB.VarNames, K[0]) << ", " << Name(DB.HeapNames, K[1])
      << ") [" << Dom.toString(K[2]) << "]";
    break;
  case ProvRel::Hpts:
    S << "hpts(" << Name(DB.HeapNames, K[0]) << "." << Name(DB.FieldNames, K[1])
      << ", " << Name(DB.HeapNames, K[2]) << ") [" << Dom.toString(K[3]) << "]";
    break;
  case ProvRel::Hload:
    S << "hload(" << Name(DB.HeapNames, K[0]) << "."
      << Name(DB.FieldNames, K[1]) << ", " << Name(DB.VarNames, K[2]) << ") ["
      << Dom.toString(K[3]) << "]";
    break;
  case ProvRel::Call:
    S << "call(" << Name(DB.InvokeNames, K[0]) << ", "
      << Name(DB.MethodNames, K[1]) << ") [" << Dom.toString(K[2]) << "]";
    break;
  case ProvRel::Reach: {
    S << "reach(" << Name(DB.MethodNames, K[0]) << ", [";
    if (K[1] < Ctxts.size()) {
      const ctx::CtxtVec &C = Ctxts[K[1]];
      for (std::size_t I = 0; I < C.size(); ++I)
        S << (I ? " " : "") << ctx::printElemDefault(C[I]);
    }
    S << "])";
    break;
  }
  case ProvRel::Gpts:
    S << "gpts(" << Name(DB.GlobalNames, K[0]) << ", "
      << Name(DB.HeapNames, K[1]) << ") [" << Dom.toString(K[2]) << "]";
    break;
  }
  return S.str();
}

} // namespace

std::string analysis::renderProvenanceChain(
    const ProvenanceGraph &G, std::uint32_t Node, const facts::FactDB &DB,
    const ctx::Domain &Dom,
    const Interner<ctx::CtxtVec, ctx::CtxtVecHash> &ReachCtxts,
    std::size_t MaxNodes) {
  std::vector<std::uint32_t> Nodes = G.chain(Node, MaxNodes);
  std::ostringstream Out;
  for (std::uint32_t N : Nodes) {
    const ProvenanceGraph::Edge &E = G.edgeOf(N);
    const RuleDesc *D = ruleDesc(E.Rule);
    Out << "  " << factText(G, N, DB, Dom, ReachCtxts) << "  <= "
        << (D ? D->Display : "?");
    if (D && D->AuxLabel) {
      std::string A = auxName(D->Aux, E.Aux, DB);
      if (!A.empty())
        Out << " (" << D->AuxLabel << " " << A << ")";
    }
    Out << "\n";
  }
  if (!Nodes.empty() && Nodes.size() >= MaxNodes)
    Out << "  ... (chain truncated)\n";
  return Out.str();
}
