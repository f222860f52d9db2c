//===- analysis/ResultsIO.cpp - Result serialization ----------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/ResultsIO.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string_view>

using namespace ctp;
using namespace ctp::analysis;

namespace {

/// A sort key: the rank columns of one line packed high-to-low, so the
/// key's numeric order is the lines' byte order. Four 32-bit columns fit.
__extension__ typedef unsigned __int128 Key;

/// Byte-order ranks of a table of texts. Equal texts share a rank, so a
/// rank column orders exactly as the texts do.
struct Ranks {
  std::vector<std::uint32_t> Of;     ///< text index -> rank
  std::vector<std::string_view> Text; ///< rank -> text
  unsigned Bits = 0;                  ///< width of the largest rank
};

Ranks rankTexts(const std::vector<std::string_view> &Texts) {
  std::vector<std::uint32_t> Order(Texts.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [&](std::uint32_t A, std::uint32_t B) {
    return Texts[A] < Texts[B];
  });
  Ranks R;
  R.Of.resize(Texts.size());
  for (std::uint32_t I : Order) {
    if (R.Text.empty() || R.Text.back() != Texts[I])
      R.Text.push_back(Texts[I]);
    R.Of[I] = static_cast<std::uint32_t>(R.Text.size() - 1);
  }
  while ((std::size_t(1) << R.Bits) < R.Text.size())
    ++R.Bits;
  return R;
}

Ranks rankNames(const std::vector<std::string> &Names) {
  return rankTexts(std::vector<std::string_view>(Names.begin(), Names.end()));
}

/// Renders each id that \p Used marks exactly once, into \p Arena, and
/// ranks the renderings (unused ids rank as "").
template <typename RenderFn>
Ranks rankRendered(const std::vector<bool> &Used, std::string &Arena,
                   RenderFn Render) {
  std::vector<std::size_t> Ends(Used.size());
  for (std::size_t Id = 0; Id < Used.size(); ++Id) {
    if (Used[Id])
      Arena += Render(static_cast<std::uint32_t>(Id));
    Ends[Id] = Arena.size();
  }
  std::vector<std::string_view> Texts(Used.size());
  for (std::size_t Id = 0, Begin = 0; Id < Used.size(); Begin = Ends[Id++])
    Texts[Id] = std::string_view(Arena).substr(Begin, Ends[Id] - Begin);
  return rankTexts(Texts);
}

/// Streams one file through a fixed buffer into "Path.tmp", renamed over
/// Path once every byte is written and the file is closed. A temporary
/// that is not renamed is removed.
class StreamWriter {
public:
  StreamWriter(const std::string &Path, std::vector<char> &Buf)
      : Path(Path), Tmp(Path + ".tmp"), Buf(Buf),
        F(std::fopen(Tmp.c_str(), "wb")) {
    if (!F)
      Failed = errno;
    else
      std::setvbuf(F, nullptr, _IONBF, 0);
  }
  ~StreamWriter() {
    if (F)
      std::fclose(F);
    if (!Done)
      std::remove(Tmp.c_str());
  }

  /// Appends \p S followed by the separator \p End.
  void put(std::string_view S, char End) {
    if (Len + S.size() + 1 > Buf.size()) {
      flush();
      if (S.size() + 1 > Buf.size()) {
        write(S.data(), S.size());
        S = {};
      }
    }
    std::memcpy(Buf.data() + Len, S.data(), S.size());
    Len += S.size();
    Buf[Len++] = End;
  }

  /// Flushes, closes and renames. \returns an empty string on success.
  std::string finish() {
    flush();
    if (F && std::fclose(F) != 0 && !Failed)
      Failed = errno;
    F = nullptr;
    if (!Failed && std::rename(Tmp.c_str(), Path.c_str()) != 0)
      Failed = errno;
    Done = !Failed;
    return Failed ? "cannot write " + Path + ": " + std::strerror(Failed)
                  : "";
  }

private:
  void flush() {
    write(Buf.data(), Len);
    Len = 0;
  }
  void write(const char *Data, std::size_t N) {
    if (N && F && !Failed && std::fwrite(Data, 1, N, F) != N)
      Failed = errno ? errno : EIO;
  }

  std::string Path, Tmp;
  std::vector<char> &Buf;
  std::FILE *F;
  std::size_t Len = 0;
  int Failed = 0;
  bool Done = false;
};

/// The rank columns of one file, most significant first.
template <std::size_t N> using Columns = std::array<const Ranks *, N>;

/// Packs the ranks of each row's columns into sorted keys.
template <std::size_t N, typename Row, typename ColumnsOf>
std::vector<Key> sortedKeys(const std::vector<Row> &Rows,
                            const Columns<N> &Cols, ColumnsOf Get) {
  std::vector<Key> Keys;
  Keys.reserve(Rows.size());
  for (const Row &F : Rows) {
    const std::array<std::uint32_t, N> Ids = Get(F);
    Key K = 0;
    for (std::size_t C = 0; C < N; ++C)
      K = (K << Cols[C]->Bits) | Cols[C]->Of[Ids[C]];
    Keys.push_back(K);
  }
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

/// Writes one line per key of sorted \p Keys whose low \p DropBits bits
/// are ignored; with DropBits > 0 lines that agree on the remaining
/// columns are written once.
template <std::size_t N>
std::string writeKeys(const std::string &Path, std::vector<char> &Buf,
                      const std::vector<Key> &Keys, const Columns<N> &Cols,
                      unsigned DropBits) {
  StreamWriter W(Path, Buf);
  Key Prev = ~Key(0); // No key shifted by DropBits > 0 has every bit set.
  for (Key K : Keys) {
    K >>= DropBits;
    if (DropBits && K == Prev)
      continue;
    Prev = K;
    std::array<std::uint32_t, N> R;
    for (std::size_t C = N; C-- > 0;) {
      R[C] = static_cast<std::uint32_t>(K & ((Key(1) << Cols[C]->Bits) - 1));
      K >>= Cols[C]->Bits;
    }
    for (std::size_t C = 0; C < N; ++C)
      W.put(Cols[C]->Text[R[C]], C + 1 < N ? '\t' : '\n');
  }
  return W.finish();
}

} // namespace

std::string analysis::writeResultsDir(const facts::FactDB &DB,
                                      const Results &R,
                                      const std::string &Dir) {
  // Render context elements with real entity names where the flavour
  // makes that unambiguous; fall back to raw element text otherwise.
  ctx::ElemPrinter Printer = [&](ctx::CtxtElem E) -> std::string {
    if (E == ctx::EntryElem)
      return "entry";
    std::uint32_t Id = ctx::entityOfElem(E);
    switch (R.Config.Flav) {
    case ctx::Flavour::CallSite:
      if (Id < DB.InvokeNames.size())
        return DB.InvokeNames[Id];
      break;
    case ctx::Flavour::Object:
      if (Id < DB.HeapNames.size())
        return DB.HeapNames[Id];
      break;
    case ctx::Flavour::Type:
      if (Id < DB.TypeNames.size())
        return DB.TypeNames[Id];
      break;
    case ctx::Flavour::Hybrid:
      if (Id < DB.HeapNames.size())
        return DB.HeapNames[Id];
      if (Id - DB.HeapNames.size() < DB.InvokeNames.size())
        return DB.InvokeNames[Id - DB.HeapNames.size()];
      break;
    }
    return "#" + std::to_string(Id);
  };

  // Render every transformation and reach context a written line uses
  // once, and rank every column's texts once: the sorts below compare
  // packed integers only.
  std::vector<bool> UsedT(R.Dom ? R.Dom->size() : 0);
  for (const auto &F : R.Pts)
    UsedT[F.T] = true;
  for (const auto &F : R.Hpts)
    UsedT[F.T] = true;
  for (const auto &F : R.Call)
    UsedT[F.T] = true;
  for (const auto &F : R.Gpts)
    UsedT[F.T] = true;
  std::vector<bool> UsedCtxt(R.Reach.empty() ? 0 : R.ReachCtxts->size());
  for (const auto &F : R.Reach)
    UsedCtxt[F.CtxtId] = true;

  std::string TArena, CtxtArena;
  const Ranks T = rankRendered(UsedT, TArena, [&](std::uint32_t Id) {
    return R.Dom->toString(Id, Printer);
  });
  const Ranks Ctxt = rankRendered(UsedCtxt, CtxtArena, [&](std::uint32_t Id) {
    return ctx::printCtxtVec((*R.ReachCtxts)[Id], Printer);
  });
  const Ranks Var = rankNames(DB.VarNames), Heap = rankNames(DB.HeapNames),
              Field = rankNames(DB.FieldNames),
              Invoke = rankNames(DB.InvokeNames),
              Method = rankNames(DB.MethodNames),
              Global = rankNames(DB.GlobalNames);

  std::vector<char> Buf(64 << 10);
  std::string Err;
  auto Write = [&](const char *File, const std::vector<Key> &Keys,
                   const auto &Cols, unsigned DropBits) {
    if (Err.empty())
      Err = writeKeys(Dir + "/" + File, Buf, Keys, Cols, DropBits);
  };
  using A2 = std::array<std::uint32_t, 2>;
  using A3 = std::array<std::uint32_t, 3>;

  // Pts and Call sort with their transformation as the last column, so
  // the context-insensitive projections are their sorted keys with that
  // column shifted off and adjacent duplicates dropped.
  const Columns<3> PtsCols{&Var, &Heap, &T};
  const std::vector<Key> PtsKeys = sortedKeys(
      R.Pts, PtsCols, [](const PtsFact &F) { return A3{F.Var, F.Heap, F.T}; });
  Write("Pts.tsv", PtsKeys, PtsCols, 0);
  Write("CiPts.tsv", PtsKeys, Columns<2>{&Var, &Heap}, T.Bits);

  const Columns<3> CallCols{&Invoke, &Method, &T};
  const std::vector<Key> CallKeys =
      sortedKeys(R.Call, CallCols, [](const CallFact &F) {
        return A3{F.Invoke, F.Method, F.T};
      });
  Write("Call.tsv", CallKeys, CallCols, 0);
  Write("CiCall.tsv", CallKeys, Columns<2>{&Invoke, &Method}, T.Bits);

  const Columns<4> HptsCols{&Heap, &Field, &Heap, &T};
  Write("Hpts.tsv",
        sortedKeys(R.Hpts, HptsCols,
                   [](const HptsFact &F) {
                     return std::array<std::uint32_t, 4>{F.Base, F.Field,
                                                         F.Heap, F.T};
                   }),
        HptsCols, 0);
  const Columns<2> ReachCols{&Method, &Ctxt};
  Write("Reach.tsv",
        sortedKeys(R.Reach, ReachCols,
                   [](const ReachFact &F) { return A2{F.Method, F.CtxtId}; }),
        ReachCols, 0);
  const Columns<3> GptsCols{&Global, &Heap, &T};
  Write("Gpts.tsv",
        sortedKeys(R.Gpts, GptsCols,
                   [](const GptsFact &F) { return A3{F.Global, F.Heap, F.T}; }),
        GptsCols, 0);
  return Err;
}
