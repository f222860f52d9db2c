//===- support/Tsv.cpp - Tab-separated-value helpers ----------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "support/Tsv.h"

#include <fstream>

using namespace ctp;

std::vector<std::string> ctp::splitTsvLine(const std::string &Line) {
  std::vector<std::string> Fields;
  std::string::size_type Start = 0;
  while (true) {
    std::string::size_type Tab = Line.find('\t', Start);
    if (Tab == std::string::npos) {
      Fields.push_back(Line.substr(Start));
      return Fields;
    }
    Fields.push_back(Line.substr(Start, Tab - Start));
    Start = Tab + 1;
  }
}

std::string ctp::joinTsvLine(const std::vector<std::string> &Fields) {
  std::string Out;
  for (std::size_t I = 0; I < Fields.size(); ++I) {
    if (I != 0)
      Out += '\t';
    Out += Fields[I];
  }
  return Out;
}

namespace {

/// Pre-split validation shared by both readers. \returns an empty string
/// for an acceptable line, else the rejection reason.
std::string checkRawLine(const std::string &Line) {
  if (Line.size() > MaxTsvLineBytes)
    return "line exceeds " + std::to_string(MaxTsvLineBytes) +
           " bytes (got " + std::to_string(Line.size()) + ")";
  if (Line.find('\0') != std::string::npos)
    return "line contains a NUL byte";
  return "";
}

} // namespace

bool ctp::readTsvFile(const std::string &Path,
                      std::vector<std::vector<std::string>> &Rows) {
  std::ifstream In(Path);
  if (!In.is_open())
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    if (!checkRawLine(Line).empty())
      continue;
    Rows.push_back(splitTsvLine(Line));
  }
  return true;
}

bool ctp::readTsvLines(const std::string &Path, std::vector<TsvLine> &Rows,
                       std::vector<TsvReject> *Rejects) {
  std::ifstream In(Path);
  if (!In.is_open())
    return false;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    std::string Reason = checkRawLine(Line);
    if (!Reason.empty()) {
      if (Rejects)
        Rejects->push_back({LineNo, std::move(Reason)});
      continue;
    }
    Rows.push_back({splitTsvLine(Line), LineNo});
  }
  return true;
}

bool ctp::writeTsvFile(const std::string &Path,
                       const std::vector<std::vector<std::string>> &Rows) {
  std::ofstream Out(Path);
  if (!Out.is_open())
    return false;
  for (const auto &Row : Rows)
    Out << joinTsvLine(Row) << '\n';
  Out.flush();
  return Out.good();
}
