//===- analysis/RuleTable.cpp - Figure 3 rule descriptors -----------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleTable.h"

using namespace ctp;
using namespace ctp::analysis;

namespace {

// Canonical firing order: axioms first, then the per-statement rules in
// the order the solver's processing loop considers them.
const RuleDesc Table[] = {
    {ProvRule::Entry, "ENTRY", "entry",
     ProvRel::Reach, RuleArity::Axiom, AuxKind::None, nullptr},
    {ProvRule::Assign, "ASSIGN", "assign",
     ProvRel::Pts, RuleArity::One, AuxKind::Var, "from"},
    {ProvRule::Cast, "CAST", "cast",
     ProvRel::Pts, RuleArity::One, AuxKind::Var, "from"},
    {ProvRule::Load, "LOAD", "load",
     ProvRel::Hload, RuleArity::One, AuxKind::Var, "base"},
    {ProvRule::Store, "STORE", "store",
     ProvRel::Hpts, RuleArity::Two, AuxKind::Var, "from"},
    {ProvRule::Param, "PARAM", "param",
     ProvRel::Pts, RuleArity::Two, AuxKind::Invoke, "at"},
    {ProvRule::Ret, "RET", "return",
     ProvRel::Pts, RuleArity::Two, AuxKind::Invoke, "at"},
    {ProvRule::Throw, "THROW", "throw",
     ProvRel::Pts, RuleArity::Two, AuxKind::Invoke, "at"},
    {ProvRule::GStore, "GSTORE", "global-store",
     ProvRel::Gpts, RuleArity::One, AuxKind::Var, "from"},
    {ProvRule::VirtCall, "VIRT", "virtual-dispatch",
     ProvRel::Call, RuleArity::One, AuxKind::Invoke, "at"},
    {ProvRule::VirtThis, "VIRT-THIS", "this-binding",
     ProvRel::Pts, RuleArity::Two, AuxKind::Invoke, "at"},
    {ProvRule::Ind, "IND", "indirect-flow",
     ProvRel::Pts, RuleArity::Two, AuxKind::None, nullptr},
    {ProvRule::Reach, "REACH", "reachability",
     ProvRel::Reach, RuleArity::One, AuxKind::Invoke, "at"},
    {ProvRule::GLoad, "GLOAD", "global-load",
     ProvRel::Pts, RuleArity::Two, AuxKind::Global, "global"},
    {ProvRule::New, "NEW", "allocation",
     ProvRel::Pts, RuleArity::One, AuxKind::Heap, "site"},
    {ProvRule::Static, "STATIC", "static-call",
     ProvRel::Call, RuleArity::One, AuxKind::Invoke, "at"},
    {ProvRule::Shortcut, "SHORTCUT", "shortcut",
     ProvRel::Pts, RuleArity::Two, AuxKind::Invoke, "at"},
};

} // namespace

const RuleDesc *analysis::ruleDesc(ProvRule R) {
  for (const RuleDesc &D : Table)
    if (D.Rule == R)
      return &D;
  return nullptr;
}

const char *analysis::ruleName(ProvRule R) {
  const RuleDesc *D = ruleDesc(R);
  return D ? D->Name : "?";
}

const char *analysis::relName(ProvRel R) {
  switch (R) {
  case ProvRel::Pts:
    return "pts";
  case ProvRel::Hpts:
    return "hpts";
  case ProvRel::Hload:
    return "hload";
  case ProvRel::Call:
    return "call";
  case ProvRel::Reach:
    return "reach";
  case ProvRel::Gpts:
    return "gpts";
  }
  return "?";
}
