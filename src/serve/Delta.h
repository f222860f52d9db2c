//===- serve/Delta.h - Fact-delta language for transactions -----*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fact-delta language accepted by ctp-serve's `delta` verb: one
/// operation per line, space-separated tokens, entity names resolved
/// against the staged database (names never contain whitespace — the
/// TSV schema forbids it). Predicate names and argument orders mirror
/// the facts-directory TSV vocabulary (facts/TsvIO.h) exactly:
///
///   add|rm entry <method>
///   add|rm assign <from> <to>
///   add|rm assign_new <heap> <to> <in-method>
///   add|rm assign_return <invoke> <to>
///   add|rm actual <var> <invoke> <ordinal>
///   add|rm formal <var> <method> <ordinal>
///   add|rm heap_type <heap> <type>               (side condition)
///   add|rm implements <method> <type> <sig>      (side condition)
///   add|rm load <base> <field> <to>
///   add|rm return <var> <method>
///   add|rm static_invoke <invoke> <target> <in-method>
///   add|rm store <from> <field> <base>
///   add|rm this_var <var> <method>               (side condition)
///   add|rm virtual_invoke <invoke> <receiver> <sig>
///   add|rm global_store <from> <global>
///   add|rm global_load <global> <to> <in-method>
///   add|rm throw <var> <method>
///   add|rm catch <invoke> <to>
///   add|rm cast <from> <to> <type>
///   add|rm subtype <sub> <super>                 (side condition)
///   add|rm spawn <invoke>
///   add|rm taint_source invoke|field <name>
///   add|rm taint_sink invoke|field <name>
///   add|rm sanitizer <invoke>
///   add entity var|heap|invoke <name> <parent-method>
///   add entity method <name> <class-type>
///   add entity field|type|sig|global <name>
///
/// Semantics: `add` of a row already present is an error, as is `rm` of
/// a missing row (a delta states exact edits; silently tolerating either
/// would let a typo commit as a no-op). `rm` erases the first matching
/// row in place, preserving the order of the rest — the same layout a
/// hand edit of the TSV file would produce. Entities are append-only:
/// ids stay stable across every transaction, so `rm entity` does not
/// exist. Ops apply immediately to the staged FactDB and accumulate the
/// solver-visible summary in an analysis::InputDelta: a narrow addition
/// is listed as a row the incremental solver seeds from; any removal of a
/// solver-visible row, and any addition of a side condition (which can
/// enable rule instances anywhere), sets NeedsColdSolve instead. Entry
/// additions and the client annotations (spawn, taint_*, sanitizer)
/// leave the summary unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_SERVE_DELTA_H
#define CTP_SERVE_DELTA_H

#include "analysis/Incremental.h"
#include "facts/FactDB.h"

#include <string>
#include <vector>

namespace ctp {
namespace serve {

/// Applies one delta operation to \p DB, accumulating the solver-visible
/// summary in \p D. Validation is all-or-nothing per op: on a non-empty
/// return (the diagnostic) neither \p DB nor \p D was modified.
std::string applyDeltaOp(const std::string &Line, facts::FactDB &DB,
                         analysis::InputDelta &D);

/// Applies \p Lines in order, stopping at the first failure ("op N:"
/// prefixed diagnostic). Earlier ops remain applied — callers replaying
/// a journal treat any failure as fatal for the whole transaction.
std::string applyDeltaOps(const std::vector<std::string> &Lines,
                          facts::FactDB &DB, analysis::InputDelta &D);

} // namespace serve
} // namespace ctp

#endif // CTP_SERVE_DELTA_H
