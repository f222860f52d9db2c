//===- analysis/RuleTable.h - Figure 3 rule descriptors ---------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A declarative table of the deduction rules the solvers implement: one
/// descriptor per ProvRule, naming the rule and the derived relation it
/// concludes into. The verifier (src/verify) reads it to check a
/// certificate's shape and to name rules in counterexamples and
/// support-certificate diagnostics, and the provenance renderer reads the
/// names a derivation chain prints; exposing it here keeps the rule
/// vocabulary in src/analysis, next to the solver that defines it, and
/// engine-independent (both back-ends implement exactly these rules).
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_RULETABLE_H
#define CTP_ANALYSIS_RULETABLE_H

#include "analysis/Provenance.h"

#include <cstddef>

namespace ctp {
namespace analysis {

/// How many derived-relation premises a rule joins (its input-predicate
/// premises are not counted — they are enumerable from the FactDB).
enum class RuleArity : std::uint8_t { Axiom, One, Two };

/// What the aux word of a rule's provenance edges names.
enum class AuxKind : std::uint8_t { None, Var, Invoke, Global, Heap };

/// One deduction rule.
struct RuleDesc {
  ProvRule Rule;
  /// Upper-case Figure 3 name ("ASSIGN", "VIRT", ...), stable across
  /// engines; used in diagnostics and counterexample rendering.
  const char *Name;
  /// Lower-case name derivation chains print ("return", "indirect-flow").
  const char *Display;
  /// The relation the rule concludes into.
  ProvRel Conclusion;
  RuleArity Arity;
  /// What the edge's aux word names, and the word a rendered chain puts
  /// before that name ("at", "from"); nullptr when nothing is printed.
  AuxKind Aux;
  const char *AuxLabel;
};

/// The descriptor of \p R, or nullptr for an out-of-range value.
const RuleDesc *ruleDesc(ProvRule R);

/// Display name of \p R ("ASSIGN"), or "?" for an out-of-range value.
const char *ruleName(ProvRule R);

/// Display name of a derived relation ("pts", "hpts", ...).
const char *relName(ProvRel R);

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_RULETABLE_H
