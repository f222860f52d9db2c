//===- support/Tsv.h - Tab-separated-value helpers --------------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reading and writing of Doop-style ".facts" files: one fact per line,
/// attributes separated by tabs. The paper consumes facts produced by the
/// Doop/Soot fact generator in exactly this format; this project emits and
/// consumes the same shape so an analysis can be driven from files on disk.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_SUPPORT_TSV_H
#define CTP_SUPPORT_TSV_H

#include <string>
#include <vector>

namespace ctp {

/// Splits \p Line at tab characters. Empty fields are preserved.
std::vector<std::string> splitTsvLine(const std::string &Line);

/// Joins \p Fields with tab separators.
std::string joinTsvLine(const std::vector<std::string> &Fields);

/// Reads every line of the file at \p Path, split into fields.
/// \returns false if the file cannot be opened.
bool readTsvFile(const std::string &Path,
                 std::vector<std::vector<std::string>> &Rows);

/// One non-empty line of a TSV file with its 1-based line number, so
/// readers can report "File:LINE" diagnostics.
struct TsvLine {
  std::vector<std::string> Fields;
  unsigned LineNo = 0;
};

/// Hard cap on one physical line. Facts files carry entity names, never
/// megabyte payloads; a line beyond this is a corrupt or hostile input
/// (e.g. a binary blob dropped into a facts directory) and is rejected
/// before field splitting rather than ballooning reader memory.
constexpr std::size_t MaxTsvLineBytes = 1u << 20;

/// A line rejected before field splitting: an embedded NUL byte (TSV is
/// a text format; NULs mean binary junk and would silently truncate any
/// later C-string handling) or a line over MaxTsvLineBytes.
struct TsvReject {
  unsigned LineNo = 0;
  std::string Reason; ///< e.g. "line contains a NUL byte"
};

/// Like readTsvFile, but keeps the line number of every row. Lines with
/// NUL bytes or over MaxTsvLineBytes never reach \p Rows; they are
/// recorded in \p Rejects when non-null (and dropped otherwise — pass a
/// reject list anywhere the count matters, as facts/TsvIO does).
bool readTsvLines(const std::string &Path, std::vector<TsvLine> &Rows,
                  std::vector<TsvReject> *Rejects = nullptr);

/// Writes \p Rows to the file at \p Path, one line per row.
/// \returns false if the file cannot be created or a write fails (for
/// example, the disk is full).
bool writeTsvFile(const std::string &Path,
                  const std::vector<std::vector<std::string>> &Rows);

} // namespace ctp

#endif // CTP_SUPPORT_TSV_H
