//===- analysis/ResultsIO.h - Result serialization --------------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writes analysis results to a directory of TSV files, mirroring how the
/// paper's Datalog pipeline materializes derived relations: the full
/// context-sensitive relations (with transformations rendered in the
/// abstraction's syntax) and the context-insensitive projections that
/// clients typically consume.
///
/// Files written:
///   Pts.tsv      var  heap  transformation
///   Hpts.tsv     base-heap  field  heap  transformation
///   Call.tsv     invocation  method  transformation
///   Reach.tsv    method  context-prefix
///   Gpts.tsv     global  heap  transformation
///   CiPts.tsv    var  heap
///   CiCall.tsv   invocation  method
///
/// Order: each file's lines are sorted field by field in byte order,
/// which is `LC_ALL=C sort` order whenever no name holds a byte below
/// the tab. The bytes therefore depend on the relations' values only:
/// not on derivation order, interning order, resumption or back-end. The
/// full relations have one line per tuple; CiPts/CiCall have one line
/// per distinct pair.
///
/// Writing: each file is streamed into "File.tmp" in the target
/// directory and renamed over "File" only once every write and the close
/// have succeeded; a failed file's temporary is removed. Files are
/// written one after another and the first failure stops the rest, so a
/// failed call can leave earlier files complete and later ones absent
/// or stale, but never a partial "File".
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_RESULTSIO_H
#define CTP_ANALYSIS_RESULTSIO_H

#include "analysis/Results.h"
#include "facts/FactDB.h"

#include <string>

namespace ctp {
namespace analysis {

/// Writes \p R into directory \p Dir (which must exist), using \p DB's
/// entity names. \returns an empty string on success, else a message
/// naming the file that failed and why.
std::string writeResultsDir(const facts::FactDB &DB, const Results &R,
                            const std::string &Dir);

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_RESULTSIO_H
