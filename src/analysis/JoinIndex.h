//===- analysis/JoinIndex.h - Context-keyed join partner lists --*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The partner lists of the native solver's two-premise joins, keyed by
/// the part of a transformation composition must agree on (Section 7 of
/// the paper: indexing sets the cost of the rules). Each entry sits under
/// an owner (the join column: a variable, invocation, method, or
/// base-field slot) and a join key from ctx::Domain::outKey/inKey. A probe
/// with key K visits the K list and the owner's AnyKey list; a probe with
/// AnyKey visits every list of the owner. Only pairs whose keys are
/// incompatible are skipped, and those never compose, so the index is a
/// filter that cannot drop a derivation.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_ANALYSIS_JOININDEX_H
#define CTP_ANALYSIS_JOININDEX_H

#include "ctx/Domain.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ctp {
namespace analysis {

class JoinIndex {
public:
  /// (other column, transformation) of one indexed fact.
  using Entry = std::pair<std::uint32_t, ctx::TransformId>;
  static constexpr std::uint32_t AnyKey = ctx::Domain::AnyKey;

  void insert(std::uint32_t Owner, std::uint32_t Key, Entry E) {
    if (Owner >= OwnerLists.size()) {
      OwnerLists.resize(static_cast<std::size_t>(Owner) + 1);
      AnyListOf.resize(static_cast<std::size_t>(Owner) + 1, NoList);
    }
    auto [It, New] = ListOf.try_emplace(
        slot(Owner, Key), static_cast<std::uint32_t>(Lists.size()));
    if (New) {
      Lists.emplace_back();
      OwnerLists[Owner].push_back(It->second);
      if (Key == AnyKey)
        AnyListOf[Owner] = It->second;
    }
    Lists[It->second].push_back(E);
  }

  /// Removes one occurrence of \p E from the (Owner, Key) list, moving the
  /// list's last entry into its place.
  void erase(std::uint32_t Owner, std::uint32_t Key, Entry E) {
    auto It = ListOf.find(slot(Owner, Key));
    if (It == ListOf.end())
      return;
    std::vector<Entry> &L = Lists[It->second];
    for (std::size_t I = 0; I < L.size(); ++I)
      if (L[I] == E) {
        L[I] = L.back();
        L.pop_back();
        return;
      }
  }

  /// Calls \p Fn(Entry) for every entry of \p Owner whose key is
  /// compatible with \p Key. Iterates by position and re-reads every
  /// size, so \p Fn may insert into this index, even into the list being
  /// visited (an entry appended meanwhile may or may not be visited).
  template <typename Fn>
  void visit(std::uint32_t Owner, std::uint32_t Key, Fn &&F) const {
    if (Owner >= OwnerLists.size())
      return;
    if (Key == AnyKey) {
      for (std::size_t I = 0; I < OwnerLists[Owner].size(); ++I)
        visitList(OwnerLists[Owner][I], F);
      return;
    }
    if (auto It = ListOf.find(slot(Owner, Key)); It != ListOf.end())
      visitList(It->second, F);
    if (AnyListOf[Owner] != NoList)
      visitList(AnyListOf[Owner], F);
  }

  /// Every entry of \p Owner.
  template <typename Fn> void visitAll(std::uint32_t Owner, Fn &&F) const {
    visit(Owner, AnyKey, F);
  }

private:
  static constexpr std::uint32_t NoList = UINT32_MAX;

  static std::uint64_t slot(std::uint32_t Owner, std::uint32_t Key) {
    return (static_cast<std::uint64_t>(Owner) << 32) | Key;
  }

  template <typename Fn> void visitList(std::uint32_t L, Fn &F) const {
    for (std::size_t I = 0; I < Lists[L].size(); ++I) {
      const Entry E = Lists[L][I];
      F(E);
    }
  }

  std::unordered_map<std::uint64_t, std::uint32_t> ListOf;
  std::vector<std::vector<Entry>> Lists;
  /// The lists of each owner, in creation order, and its AnyKey list.
  std::vector<std::vector<std::uint32_t>> OwnerLists;
  std::vector<std::uint32_t> AnyListOf;
};

} // namespace analysis
} // namespace ctp

#endif // CTP_ANALYSIS_JOININDEX_H
