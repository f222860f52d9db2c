//===- perfbench/ctp-perfbench.cpp - Benchmark helper ---------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// The in-process half of the repository benchmark (perfbench/run.py drives
// it). The CLIs under test only ever see the facts directories this tool
// writes; everything it measures goes through the libraries' public
// functions.
//
//   ctp-perfbench gen SHAPE DRIVERS_X SEED OUT
//       write a facts directory: the SHAPE preset with its driver count
//       multiplied by DRIVERS_X, perturbed by SEED (see perturb()).
//   ctp-perfbench load DIR REPS
//       read DIR through the facts reader REPS times; print the mean.
//   ctp-perfbench cal
//       time the calibration kernel once (see calibrationKernel()).
//   ctp-perfbench mix --socket PATH --facts DIR --base-pts FILE --seed N
//                     --slice I --pairs K --period-ms P --lat-out FILE
//       one query+commit slice against a freshly started ctp-serve daemon;
//       FILE is the CiPts.tsv of a ts solve of DIR.
//   ctp-perfbench ask --socket PATH [--wait-s S] REQUEST...
//       send each REQUEST payload on one connection and print the
//       responses; with --wait-s, retry the first one for up to S seconds
//       until the daemon answers it ok.
//   ctp-perfbench trace --facts DIR --seed N --seconds S --pairs K
//                       --period-ms P --load-reps R --work DIR
//                       --spans-out FILE
//       the in-process pass: per-layer spans and counts.
//
// Every subcommand prints one JSON object on its last stdout line.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/ResultsIO.h"
#include "analysis/Solver.h"
#include "cfl/Demand.h"
#include "clients/Alias.h"
#include "clients/Taint.h"
#include "ctx/Config.h"
#include "facts/Extract.h"
#include "facts/TsvIO.h"
#include "serve/Delta.h"
#include "serve/Service.h"
#include "serve/Txn.h"
#include "serve/Wire.h"
#include "support/Rng.h"
#include "verify/Verify.h"
#include "workload/Presets.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ctp;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  const std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonStrings(const std::vector<std::string> &V) {
  std::string Out = "[";
  for (std::size_t I = 0; I < V.size(); ++I)
    Out += (I ? ", " : "") + jsonString(V[I]);
  return Out + "]";
}

std::string jsonNumbers(const std::vector<double> &V) {
  std::string Out = "[";
  for (std::size_t I = 0; I < V.size(); ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "%s%.6f", I ? ", " : "", V[I]);
    Out += Buf;
  }
  return Out + "]";
}

/// Flat `"key": value` JSON object builder; numbers keep all digits.
class JsonObject {
public:
  void num(const std::string &K, double V) {
    char Buf[64];
    if (std::isfinite(V))
      std::snprintf(Buf, sizeof Buf, "%.9g", V);
    else
      std::snprintf(Buf, sizeof Buf, "null");
    raw(K, Buf);
  }
  void raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ", ") + jsonString(K) + ": " + V;
  }
  std::string str() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

bool loadFacts(const std::string &Dir, facts::FactDB &DB) {
  if (std::string E = facts::readFactsDir(Dir, DB); !E.empty()) {
    std::fprintf(stderr, "error: %s\n", E.c_str());
    return false;
  }
  return true;
}

ctx::Config objectSensitive(ctx::Abstraction Abs) {
  ctx::Config Cfg;
  ctx::configByName("2-object+H", Abs, Cfg);
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Facts generation.
//===----------------------------------------------------------------------===//

template <class T> void shuffleRows(std::vector<T> &Rows, Rng &R) {
  for (std::size_t I = Rows.size(); I > 1; --I)
    std::swap(Rows[I - 1], Rows[R.nextBelow(I)]);
}

/// Varies the generated program with the benchmark seed while keeping its
/// cost. The generator's own seed decides which pattern instances exist,
/// and the cost of one solve swings by orders of magnitude across
/// generator seeds (bloat: 14-456 ms; chart: 0.2 s to minutes), so the
/// shape keeps its preset seed. The benchmark seed instead reorders every
/// input relation (evaluation order, which output bytes must not depend
/// on) and appends 1 + SEED % 64 unreachable methods, each with one
/// allocation: input size changes, derived facts do not.
std::string perturb(facts::FactDB &DB, std::uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 1);
  shuffleRows(DB.Actuals, R);
  shuffleRows(DB.Assigns, R);
  shuffleRows(DB.AssignNews, R);
  shuffleRows(DB.AssignReturns, R);
  shuffleRows(DB.Formals, R);
  shuffleRows(DB.HeapTypes, R);
  shuffleRows(DB.Implements, R);
  shuffleRows(DB.Loads, R);
  shuffleRows(DB.Returns, R);
  shuffleRows(DB.StaticInvokes, R);
  shuffleRows(DB.Stores, R);
  shuffleRows(DB.ThisVars, R);
  shuffleRows(DB.VirtualInvokes, R);
  shuffleRows(DB.GlobalStores, R);
  shuffleRows(DB.GlobalLoads, R);
  shuffleRows(DB.Casts, R);
  const std::string Type = DB.TypeNames.at(0);
  analysis::InputDelta Unused;
  const std::uint64_t Dead = 1 + Seed % 64;
  for (std::uint64_t I = 0; I < Dead; ++I) {
    const std::string M = "Unreached" + std::to_string(I) + ".run";
    const std::string V = M + "/v", H = M + "/new";
    for (const std::string &Op :
         {"add entity method " + M + " " + Type,
          "add entity var " + V + " " + M, "add entity heap " + H + " " + M,
          "add assign_new " + H + " " + V + " " + M,
          "add heap_type " + H + " " + Type})
      if (std::string E = serve::applyDeltaOp(Op, DB, Unused); !E.empty())
        return E;
  }
  return "";
}

int cmdGen(const std::string &Shape, unsigned DriversX, std::uint64_t Seed,
           const std::string &Out) {
  const std::vector<std::string> Names = workload::presetNames();
  if (std::find(Names.begin(), Names.end(), Shape) == Names.end() ||
      DriversX == 0) {
    std::fprintf(stderr, "error: unknown shape '%s' or zero drivers\n",
                 Shape.c_str());
    return 2;
  }
  workload::WorkloadParams P = workload::presetParams(Shape);
  P.Drivers *= DriversX;
  facts::FactDB DB = facts::extract(workload::generate(P));
  std::string Err = perturb(DB, Seed);
  if (Err.empty()) {
    fs::create_directories(Out);
    Err = facts::writeFactsDir(DB, Out);
  }
  if (!Err.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  JsonObject J;
  J.num("input_tuples", static_cast<double>(DB.numInputFacts()));
  std::printf("%s\n", J.str().c_str());
  return 0;
}

int cmdLoad(const std::string &Dir, unsigned Reps) {
  std::size_t Tuples = 0;
  const auto T0 = Clock::now();
  for (unsigned I = 0; I < Reps; ++I) {
    facts::FactDB DB;
    if (!loadFacts(Dir, DB))
      return 1;
    Tuples = DB.numInputFacts();
  }
  JsonObject J;
  J.num("per_load_s", secondsBetween(T0, Clock::now()) / std::max(1u, Reps));
  J.num("input_tuples", static_cast<double>(Tuples));
  std::printf("%s\n", J.str().c_str());
  return 0;
}

/// A fixed amount of work that uses the host the way the analyses do: a
/// hash-table build and probe, then a random walk over a working set larger
/// than a core's L2 cache. It calls no code of the repository, so no change
/// to the program moves it; what moves it is the host. On a shared VM the
/// same ctp-analyze run takes 20-35% longer in phases of seconds to
/// minutes, and kernels like this one slow down with it (correlation
/// 0.6-0.8 with back-to-back ctp-analyze samples on a 4-core VM). run.py
/// times it between the programs it measures and scales their times by the
/// median of a run's timings.
double calibrationKernel() {
  const auto T0 = Clock::now();
  std::uint64_t X = 0x9e3779b97f4a7c15ull, Acc = 0;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  std::unordered_map<std::uint64_t, std::uint32_t> Table;
  for (std::uint32_t I = 0; I < 60000; ++I)
    Table[Next() % 80000] += I;
  for (std::uint32_t I = 0; I < 60000; ++I)
    if (auto It = Table.find(Next() % 80000); It != Table.end())
      Acc += It->second;
  // Sattolo's shuffle: one cycle through all 4 MB, twice a core's L2 cache,
  // so the walk never settles into a short, cached loop.
  std::vector<std::uint32_t> Perm(1u << 20);
  std::iota(Perm.begin(), Perm.end(), 0u);
  for (std::size_t I = Perm.size() - 1; I > 0; --I)
    std::swap(Perm[I], Perm[Next() % I]);
  std::uint32_t P = 0;
  for (std::uint32_t I = 0; I < (1u << 19); ++I)
    Acc += P = Perm[P];
  const double Secs = secondsBetween(T0, Clock::now());
  static volatile std::uint64_t Sink;
  Sink = Acc;
  return Secs;
}

int cmdCal() {
  JsonObject J;
  J.num("cal_s", calibrationKernel());
  std::printf("%s\n", J.str().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// The query+commit mix, over a socket or in process.
//===----------------------------------------------------------------------===//

struct Args {
  std::map<std::string, std::string> Opt;
  std::vector<std::string> Positional;
  std::string get(const std::string &K) const {
    auto It = Opt.find(K);
    return It == Opt.end() ? "" : It->second;
  }
  double num(const std::string &K) const {
    return std::strtod(get(K).c_str(), nullptr);
  }
  std::uint64_t count(const std::string &K) const {
    return std::strtoull(get(K).c_str(), nullptr, 10);
  }
};

/// Sends one request payload and returns the parsed response; a transport
/// failure comes back with status "error".
using Channel = std::function<serve::Response(const std::string &)>;

using Edge = std::pair<std::string, std::string>;

/// What one slice sends. Targets are listed hottest first; each planned
/// edge is an Assign row the transaction connection removes and re-adds.
struct MixPlan {
  std::vector<std::string> Vars, Heaps;
  std::vector<Edge> Edges;
  Edge FinalEdge; ///< Removed after the pairs, and left removed.
  double PeriodMs = 0;
  std::uint64_t Seed = 0;
};

/// Orders \p Items by a hash of their names. The order, and so which
/// targets are hot and which edges are edited, is the same for every seed:
/// the cost of one query or commit varies widely with its target (one
/// removal invalidates 2 tuples, another hundreds), and a seed that picked
/// a different hot set or edge list would move the medians.
template <class T, class NameOf>
void rankByName(std::vector<T> &Items, NameOf Name) {
  std::hash<std::string> H;
  std::stable_sort(Items.begin(), Items.end(), [&](const T &A, const T &B) {
    return H(Name(A)) < H(Name(B));
  });
}

/// Variables that appear in the CiPts.tsv at \p Path.
std::set<std::string> pointingVars(const std::string &Path) {
  std::set<std::string> Out;
  std::ifstream In(Path);
  for (std::string Line; std::getline(In, Line);)
    Out.insert(Line.substr(0, Line.find('\t')));
  return Out;
}

/// Assign rows whose removal must change the points-to set of their target:
/// the source points somewhere (it is in \p Pointing) and the row is the
/// target's only definition, so after the removal the target points
/// nowhere.
std::vector<Edge> soleDefinitions(const facts::FactDB &DB,
                                  const std::set<std::string> &Pointing) {
  std::vector<unsigned> Defs(DB.numVars());
  for (const auto &F : DB.Assigns)
    ++Defs[F.To];
  for (const auto &F : DB.AssignNews)
    ++Defs[F.To];
  for (const auto &F : DB.AssignReturns)
    ++Defs[F.To];
  for (const auto &F : DB.Formals)
    ++Defs[F.Var];
  for (const auto &F : DB.Loads)
    ++Defs[F.To];
  for (const auto &F : DB.ThisVars)
    ++Defs[F.Var];
  for (const auto &F : DB.GlobalLoads)
    ++Defs[F.To];
  for (const auto &F : DB.Catches)
    ++Defs[F.To];
  for (const auto &F : DB.Casts)
    ++Defs[F.To];
  std::vector<Edge> Out;
  for (const facts::AssignFact &F : DB.Assigns)
    if (Defs[F.To] == 1 && Pointing.count(DB.VarNames[F.From]))
      Out.emplace_back(DB.VarNames[F.From], DB.VarNames[F.To]);
  return Out;
}

/// The plan of slice \p Slice: it edits the first Pairs Assign rows of the
/// ranked order and removes the first sole definition (see
/// soleDefinitions) last, so the check after the slice sees answers that
/// the last commit changed. Every slice makes the same commits, so a run's
/// commit samples repeat one another however many slices it holds; the
/// seed and the slice drive the query stream. Returns an empty plan when
/// there is no sole definition.
MixPlan makePlan(const facts::FactDB &DB, const Args &A,
                 const std::set<std::string> &Pointing) {
  const std::uint64_t Seed = A.count("seed"), Slice = A.count("slice");
  const std::size_t Pairs = A.count("pairs");
  auto Self = [](const std::string &S) { return S; };
  auto EdgeName = [](const Edge &E) { return E.first + "\t" + E.second; };
  MixPlan P;
  std::vector<Edge> Finals = soleDefinitions(DB, Pointing);
  if (Finals.empty())
    return P;
  rankByName(Finals, EdgeName);
  P.FinalEdge = Finals.front();
  P.Vars = DB.VarNames;
  P.Heaps = DB.HeapNames;
  rankByName(P.Vars, Self);
  rankByName(P.Heaps, Self);
  std::vector<Edge> Edges;
  for (const facts::AssignFact &F : DB.Assigns)
    Edges.emplace_back(DB.VarNames[F.From], DB.VarNames[F.To]);
  rankByName(Edges, EdgeName);
  for (std::size_t I = 0; I < Pairs && I < Edges.size(); ++I)
    P.Edges.push_back(Edges[I]);
  P.PeriodMs = A.num("period-ms");
  P.Seed = Seed * 1000003 + Slice;
  return P;
}

// The query traffic. The repository records no real query mix, so these
// are assumptions, fixed so that every run offers the same traffic:
// - Kinds: 60% pts, 30% alias, 10% taint. pts is the primitive lookup and
//   alias costs two of them, so most traffic exercises the hot points-to
//   index; taint answers come from a whole-program summary that changes
//   only on commit, so a small share covers that index.
// - Targets: index N*u^3 of the ranked list puts half the draws on the
//   hottest eighth, for users who keep asking about a small working set.
// - Think time: 250 us between an answer and the next query, so the closed
//   loop offers a few thousand queries a second instead of saturating the
//   host's cores, which would make commit times a measure of CPU
//   contention.
enum QueryKind : std::uint8_t { QPts, QAlias, QTaint };
constexpr unsigned PtsPercent = 60, AliasPercent = 30;
constexpr double ThinkUs = 250;

/// Skewed target choice over \p N ranked targets.
std::size_t skewed(Rng &R, std::size_t N) {
  const double U = R.nextDouble();
  return std::min(N - 1, static_cast<std::size_t>(N * U * U * U));
}

struct MixResult {
  /// Client-side round trip per query, microseconds; +inf marks a query
  /// that was shed, degraded or failed (it misses every latency limit).
  std::vector<double> LatUs;
  std::vector<std::uint8_t> Kind;
  std::vector<std::uint8_t> InCommit;
  std::vector<double> AddMs, RmMs;
  /// Calibration kernel times (see calibrationKernel()), before the first
  /// commit and after each; empty unless asked for.
  std::vector<double> CalS;
  std::size_t QueryFailed = 0, EpochViolations = 0, Txns = 0, TxnFailed = 0;
  std::uint64_t Acked = 0; ///< The daemon's epoch after the slice.
  /// Answers the demand-driven engine gave instead of the hot fixpoint.
  std::size_t CflAnswers = 0;
  std::vector<std::string> Errors;
};

bool answeredHot(const serve::Response &R) {
  return R.Status == serve::StatusOk && R.Mode == "hot";
}

/// Runs one slice: a closed-loop query connection beside a transaction
/// connection that commits `rm assign` and then `add assign` of each
/// planned edge, one commit per period, and then removes FinalEdge. The
/// daemon is fresh: epoch 0, base facts. With \p Calibrate the transaction
/// connection also times the calibration kernel before the first commit
/// and after each one, while the queries go on.
MixResult runMix(const Channel &Queries, const Channel &Txns,
                 const MixPlan &P, bool Calibrate) {
  MixResult Res;
  std::atomic<std::uint64_t> Acked{0};
  std::atomic<int> InFlight{0};
  std::atomic<bool> Done{false};

  std::thread QueryThread([&] {
    const auto Think = std::chrono::nanoseconds(
        static_cast<std::int64_t>(ThinkUs * 1e3));
    Rng R(P.Seed);
    std::uint64_t Id = 0;
    while (!Done.load()) {
      const std::uint64_t Draw = R.nextBelow(100);
      const QueryKind K = Draw < PtsPercent                  ? QPts
                          : Draw < PtsPercent + AliasPercent ? QAlias
                                                             : QTaint;
      std::string Payload = "q" + std::to_string(Id++);
      if (K == QPts)
        Payload += "\tpts\t" + P.Vars[skewed(R, P.Vars.size())];
      else if (K == QAlias)
        Payload += "\talias\t" + P.Vars[skewed(R, P.Vars.size())] + "\t" +
                   P.Vars[skewed(R, P.Vars.size())];
      else
        Payload += "\ttaint\t" + P.Heaps[skewed(R, P.Heaps.size())];
      const std::uint64_t Lo = Acked.load();
      const int BusyBefore = InFlight.load();
      const auto T0 = Clock::now();
      const serve::Response A = Queries(Payload);
      const double Us = secondsBetween(T0, Clock::now()) * 1e6;
      // InFlight before Acked: the committer bumps Acked before clearing
      // InFlight, so this order never under-counts a finished commit.
      const int BusyAfter = InFlight.load();
      const std::uint64_t Hi = Acked.load() + BusyAfter;
      const bool Ok = answeredHot(A);
      Res.QueryFailed += !Ok;
      Res.CflAnswers += A.Mode.rfind("cfl", 0) == 0;
      Res.EpochViolations += A.Epoch < Lo || A.Epoch > Hi;
      Res.LatUs.push_back(Ok ? Us : std::numeric_limits<double>::infinity());
      Res.Kind.push_back(K);
      Res.InCommit.push_back(BusyBefore || BusyAfter);
      std::this_thread::sleep_for(Think);
    }
  });

  if (Calibrate)
    Res.CalS.push_back(calibrationKernel());
  auto Commit = [&](const char *Op, const Edge &E) {
    ++Res.Txns;
    InFlight.store(1);
    const auto T0 = Clock::now();
    const serve::Response B = Txns("b\tbegin");
    const serve::Response D = Txns("d\tdelta\t" + std::string(Op) +
                                   "\tassign\t" + E.first + "\t" + E.second);
    serve::Response C;
    if (B.Status == serve::StatusOk && D.Status == serve::StatusOk)
      C = Txns("c\tcommit");
    else if (B.Status == serve::StatusOk)
      Txns("a\tabort");
    const double Ms = secondsBetween(T0, Clock::now()) * 1e3;
    const bool Ok =
        C.Status == serve::StatusOk && C.Epoch == Acked.load() + 1;
    if (Ok)
      Acked.fetch_add(1);
    InFlight.store(0);
    if (!Ok) {
      ++Res.TxnFailed;
      Res.Errors.push_back(std::string(Op) + " " + E.first + " " + E.second +
                           ": " + B.Body + " / " + D.Body + " / " + C.Body);
      return;
    }
    (std::strcmp(Op, "add") == 0 ? Res.AddMs : Res.RmMs).push_back(Ms);
    if (Calibrate)
      Res.CalS.push_back(calibrationKernel());
  };

  const auto Start = Clock::now();
  std::size_t Slot = 0;
  auto WaitSlot = [&] {
    std::this_thread::sleep_until(
        Start + std::chrono::microseconds(static_cast<std::int64_t>(
                    static_cast<double>(Slot++) * P.PeriodMs * 1e3)));
  };
  for (const Edge &E : P.Edges) {
    WaitSlot();
    Commit("rm", E);
    WaitSlot();
    Commit("add", E);
  }
  WaitSlot();
  Commit("rm", P.FinalEdge);
  Done.store(true);
  QueryThread.join();
  Res.Acked = Acked.load();
  return Res;
}

serve::Response failed(const std::string &Why) {
  serve::Response R;
  R.Status = serve::StatusError;
  R.Body = Why;
  return R;
}

/// A blocking request/response channel over one Unix-socket connection.
class SocketChannel {
public:
  explicit SocketChannel(const std::string &Path)
      : Fd(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::snprintf(Addr.sun_path, sizeof Addr.sun_path, "%s", Path.c_str());
    if (Fd >= 0 && ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                             sizeof Addr) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~SocketChannel() {
    if (Fd >= 0)
      ::close(Fd);
  }
  SocketChannel(const SocketChannel &) = delete;
  SocketChannel &operator=(const SocketChannel &) = delete;

  bool ok() const { return Fd >= 0; }

  serve::Response call(const std::string &Payload) {
    std::string Reply;
    serve::Response R;
    if (!serve::writeFrame(Fd, Payload))
      return failed("write failed");
    if (serve::FrameResult F = serve::readFrame(Fd, Reply);
        F != serve::FrameResult::Ok)
      return failed(serve::frameResultName(F));
    if (!serve::parseResponse(Reply, R))
      return failed("unparseable response");
    return R;
  }

private:
  int Fd;
};

/// A channel that answers through Service::answer, with no transport.
Channel inProcess(serve::Service &S) {
  return [&S](const std::string &Payload) {
    serve::Request Q;
    if (std::string E = serve::parseRequest(Payload, Q); !E.empty())
      return failed(E);
    return S.answer(Q);
  };
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 2; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K.rfind("--", 0) != 0) {
      A.Positional.push_back(K);
      continue;
    }
    K = K.substr(2);
    if (I + 1 < Argc)
      A.Opt[K] = Argv[++I];
  }
  return A;
}

int cmdMix(const Args &A) {
  facts::FactDB DB;
  if (!loadFacts(A.get("facts"), DB))
    return 1;
  const MixPlan P = makePlan(DB, A, pointingVars(A.get("base-pts")));
  if (P.Vars.empty()) {
    std::fprintf(stderr, "error: no Assign row is its target's only "
                         "definition\n");
    return 1;
  }
  SocketChannel Q(A.get("socket")), T(A.get("socket"));
  if (!Q.ok() || !T.ok()) {
    std::fprintf(stderr, "error: cannot connect to %s\n",
                 A.get("socket").c_str());
    return 1;
  }
  const MixResult R =
      runMix([&](const std::string &S) { return Q.call(S); },
             [&](const std::string &S) { return T.call(S); }, P,
             /*Calibrate=*/true);
  if (std::FILE *F = std::fopen(A.get("lat-out").c_str(), "wb")) {
    std::fwrite(R.LatUs.data(), sizeof(double), R.LatUs.size(), F);
    std::fclose(F);
  }
  JsonObject J;
  J.num("queries", static_cast<double>(R.LatUs.size()));
  J.num("query_failed", static_cast<double>(R.QueryFailed));
  J.num("epoch_violations", static_cast<double>(R.EpochViolations));
  J.num("txns", static_cast<double>(R.Txns));
  J.num("txn_failed", static_cast<double>(R.TxnFailed));
  J.num("acked", static_cast<double>(R.Acked));
  J.raw("add_ms", jsonNumbers(R.AddMs));
  J.raw("rm_ms", jsonNumbers(R.RmMs));
  J.raw("cal_s", jsonNumbers(R.CalS));
  J.raw("final_edge", jsonStrings({P.FinalEdge.first, P.FinalEdge.second}));
  J.raw("errors", jsonStrings(R.Errors));
  std::printf("%s\n", J.str().c_str());
  return 0;
}

int cmdAsk(const Args &A) {
  const auto Deadline =
      Clock::now() + std::chrono::duration<double>(A.num("wait-s"));
  std::unique_ptr<SocketChannel> C;
  std::vector<serve::Response> Answers;
  for (const std::string &Payload : A.Positional) {
    // With --wait-s the first request is retried, on a new connection,
    // until the daemon is up and answers it ok.
    while (true) {
      if (!C || !C->ok())
        C = std::make_unique<SocketChannel>(A.get("socket"));
      serve::Response R = C->ok() ? C->call(Payload) : failed("no daemon");
      if (!Answers.empty() || R.Status == serve::StatusOk ||
          Clock::now() >= Deadline) {
        Answers.push_back(R);
        break;
      }
      C.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  std::string List = "[";
  for (std::size_t I = 0; I < Answers.size(); ++I) {
    const serve::Response &R = Answers[I];
    List += (I ? ", " : "") + jsonStrings({R.Status, R.Mode,
                                           std::to_string(R.Epoch), R.Body});
  }
  JsonObject J;
  J.raw("responses", List + "]");
  std::printf("%s\n", J.str().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// The traced in-process pass.
//===----------------------------------------------------------------------===//

/// In-memory span recorder (name, start, end, parent), written out once at
/// the end of the pass. While disabled it records nothing.
class Tracer {
public:
  bool Enabled = true;

  struct Span {
    std::string Name;
    int Parent;
    double Start, End;
  };

  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T) { T.open(Name); }
    ~Scope() { T.close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
  };

  double now() const { return secondsBetween(Origin, Clock::now()); }

  /// Durations of every span called \p Name.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (S.Name == Name)
        Out.push_back(S.End - S.Start);
    return Out;
  }

  /// Wall time spent inside some layer span: the sum of the self times of
  /// every non-root span (spans nest and siblings never overlap).
  double coveredSeconds() const {
    std::vector<double> Self(Spans.size());
    for (std::size_t I = 0; I < Spans.size(); ++I)
      Self[I] = Spans[I].End - Spans[I].Start;
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= S.End - S.Start;
    double Covered = 0;
    for (std::size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Parent >= 0)
        Covered += Self[I];
    return Covered;
  }

  void write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return;
    std::fprintf(F, "name\tparent\tstart_s\tend_s\n");
    for (const Span &S : Spans)
      std::fprintf(F, "%s\t%d\t%.9f\t%.9f\n", S.Name.c_str(), S.Parent,
                   S.Start, S.End);
    std::fclose(F);
  }

private:
  void open(const char *Name) {
    if (!Enabled)
      return;
    Spans.push_back({Name, Stack.empty() ? -1 : Stack.back(), now(), 0});
    Stack.push_back(static_cast<int>(Spans.size() - 1));
  }
  void close() {
    if (!Enabled)
      return;
    Spans[Stack.back()].End = now();
    Stack.pop_back();
  }

  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

std::size_t derivedTuples(const analysis::Results &R) {
  const analysis::Stats &S = R.Stat;
  return S.NumPts + S.NumHpts + S.NumHload + S.NumCall + S.NumReach +
         S.NumGpts;
}

double dirMegabytes(const std::string &Dir) {
  std::uintmax_t Bytes = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    Bytes += E.file_size();
  return static_cast<double>(Bytes) / 1e6;
}

/// Counts of the first round; they repeat exactly for a given seed.
struct Counts {
  double InputTuples = 0, DerivCs = 0, DerivTs = 0, TuplesCs = 0,
         TuplesTs = 0, DomainCs = 0, DomainTs = 0, OutputMb = 0,
         Invalidated = 0, Incremental = 0, Replayed = 0;
  bool Taken = false;
};

struct TraceState {
  Tracer T;
  Counts C;
  /// Per-round medians of the in-process answer times.
  std::vector<double> AnswerUs[3], AllUs, InCommitUs, InCommitQueries;
  std::vector<double> CflQueryUs;
  double CflAnswers = 0;
  std::vector<std::string> Errors;
};

/// One ctp-analyze run, in process: read, solve, write.
analysis::Results analyzeOnce(TraceState &St, const std::string &Facts,
                              const std::string &Out, ctx::Abstraction Abs,
                              const char *Solve, const char *Write,
                              facts::FactDB &DB) {
  {
    Tracer::Scope S(St.T, "facts.read");
    DB = facts::FactDB();
    loadFacts(Facts, DB);
  }
  analysis::Results R;
  {
    Tracer::Scope S(St.T, Solve);
    R = analysis::solve(DB, objectSensitive(Abs));
  }
  Tracer::Scope S(St.T, Write);
  fs::create_directories(Out);
  if (std::string E = analysis::writeResultsDir(DB, R, Out); !E.empty())
    St.Errors.push_back(E);
  return R;
}

/// One in-process round: the operations of one round of perfbench/run.py,
/// in the same order, plus the client builds, demand queries and commit
/// stages the daemon runs out of sight of the CLIs.
void inProcessRound(TraceState &St, const Args &A, std::uint64_t Slice) {
  const std::string Facts = A.get("facts"), Work = A.get("work");
  Tracer &T = St.T;
  Tracer::Scope Round(T, "round");

  serve::ServiceOptions SO;
  SO.FactsDir = Facts;
  SO.CheckpointDir = Work + "/serve-state";
  fs::remove_all(SO.CheckpointDir);
  serve::Service Svc(SO);
  {
    Tracer::Scope S(T, "serve.init");
    if (std::string E = Svc.init(); !E.empty())
      St.Errors.push_back(E);
  }

  facts::FactDB DB;
  analysis::Results Cs, Ts, Prov;
  {
    Tracer::Scope S(T, "analyze.cs");
    Cs = analyzeOnce(St, Facts, Work + "/out-cs",
                     ctx::Abstraction::ContextString, "analysis.solve_cs",
                     "analysis.write_cs", DB);
  }
  {
    Tracer::Scope S(T, "analyze.ts");
    Ts = analyzeOnce(St, Facts, Work + "/out-ts",
                     ctx::Abstraction::TransformerString, "analysis.solve_ts",
                     "analysis.write_ts", DB);
  }
  {
    Tracer::Scope S(T, "certify");
    {
      Tracer::Scope S2(T, "facts.read");
      DB = facts::FactDB();
      loadFacts(Facts, DB);
    }
    analysis::SolverOptions Opts;
    Opts.Provenance.Enabled = true;
    {
      Tracer::Scope S2(T, "analysis.solve_prov_ts");
      Prov = analysis::solve(
          DB, objectSensitive(ctx::Abstraction::TransformerString), Opts);
    }
    std::string CE;
    bool Closed = false, Supported = false;
    {
      Tracer::Scope S2(T, "verify.closure");
      Closed = verify::checkClosure(DB, Prov, verify::ClosureOptions(), CE);
    }
    {
      Tracer::Scope S2(T, "verify.support");
      Supported = verify::checkSupport(DB, Prov, CE);
    }
    if (!Closed || !Supported)
      St.Errors.push_back("certification failed: " + CE);
  }
  {
    Tracer::Scope S(T, "setup.load");
    for (std::uint64_t I = 0; I < A.count("load-reps"); ++I) {
      Tracer::Scope S2(T, "facts.read");
      facts::FactDB Tmp;
      loadFacts(Facts, Tmp);
    }
  }
  {
    Tracer::Scope S(T, "clients");
    {
      Tracer::Scope S2(T, "clients.alias_build");
      clients::AliasOracle O(Ts);
    }
    Tracer::Scope S2(T, "clients.taint");
    clients::computeTaint(DB, Ts);
  }

  Args SliceArgs = A;
  SliceArgs.Opt["slice"] = std::to_string(Slice);
  const MixPlan P =
      makePlan(DB, SliceArgs, pointingVars(Work + "/out-ts/CiPts.tsv"));
  if (P.Vars.empty()) {
    St.Errors.push_back("no Assign row is its target's only definition");
    return;
  }
  {
    Tracer::Scope S(T, "cfl");
    std::unique_ptr<cfl::DemandSolver> D;
    {
      Tracer::Scope S2(T, "cfl.build");
      D = std::make_unique<cfl::DemandSolver>(DB);
    }
    Tracer::Scope S2(T, "cfl.query");
    std::map<std::string, std::uint32_t> VarId;
    for (std::uint32_t V = 0; V < DB.numVars(); ++V)
      VarId[DB.VarNames[V]] = V;
    for (std::size_t I = 0; I < 8 && I < P.Vars.size(); ++I) {
      const auto T0 = Clock::now();
      D->query(VarId[P.Vars[I]]);
      St.CflQueryUs.push_back(secondsBetween(T0, Clock::now()) * 1e6);
    }
  }

  MixResult M;
  {
    Tracer::Scope S(T, "serve.mix");
    const Channel Ch = inProcess(Svc);
    M = runMix(Ch, Ch, P, /*Calibrate=*/false);
  }
  St.Errors.insert(St.Errors.end(), M.Errors.begin(), M.Errors.end());
  if (M.QueryFailed || M.EpochViolations)
    St.Errors.push_back("in-process mix: failed or misattributed answers");
  // In process a query takes microseconds, so a round answers about a
  // million of them: keep each round's medians, not the samples.
  std::vector<double> ByKind[3], InCommit;
  for (std::size_t I = 0; I < M.LatUs.size(); ++I) {
    ByKind[M.Kind[I]].push_back(M.LatUs[I]);
    if (M.InCommit[I])
      InCommit.push_back(M.LatUs[I]);
  }
  for (int K = QPts; K <= QTaint; ++K)
    St.AnswerUs[K].push_back(median(ByKind[K]));
  St.AllUs.push_back(median(M.LatUs));
  St.InCommitUs.push_back(median(InCommit));
  St.InCommitQueries.push_back(static_cast<double>(InCommit.size()));
  St.CflAnswers += static_cast<double>(M.CflAnswers);

  // The same commits replayed stage by stage over the certified ts
  // fixpoint, in the order Service::commitTxn runs them.
  {
    Tracer::Scope S(T, "serve.replay");
    const std::string Journal = Work + "/replay.journal";
    fs::remove(Journal);
    const ctx::Config Cfg =
        objectSensitive(ctx::Abstraction::TransformerString);
    std::vector<std::pair<const char *, Edge>> Ops;
    for (const Edge &E : P.Edges) {
      Ops.push_back({"rm", E});
      Ops.push_back({"add", E});
    }
    Ops.push_back({"rm", P.FinalEdge});
    analysis::Results Live = std::move(Prov);
    facts::FactDB LiveDB = DB;
    for (const auto &[Op, E] : Ops) {
      facts::FactDB Staged = LiveDB;
      analysis::InputDelta D;
      if (std::string Err = serve::applyDeltaOp(
              std::string(Op) + " assign " + E.first + " " + E.second, Staged,
              D);
          !Err.empty()) {
        St.Errors.push_back(Err);
        break;
      }
      analysis::IncrementalOutcome Out;
      {
        Tracer::Scope S2(T, std::strcmp(Op, "add") == 0 ? "serve.resolve_add"
                                                        : "serve.resolve_rm");
        Out = analysis::resolveIncremental(Staged, Cfg, Live, D);
      }
      {
        Tracer::Scope S2(T, "serve.commit_certify");
        std::string CE;
        if (!verify::checkClosure(Staged, Out.R, verify::ClosureOptions(),
                                  CE) ||
            (Out.R.Prov && !verify::checkSupport(Staged, Out.R, CE)))
          St.Errors.push_back("replayed commit failed certification: " + CE);
      }
      {
        Tracer::Scope S2(T, "serve.journal_append");
        serve::JournalRecord Rec;
        Rec.K = serve::JournalRecord::Kind::Commit;
        Rec.Tx = "t1";
        Rec.Epoch = 1;
        if (std::string Err = serve::appendRecord(Journal, Rec); !Err.empty())
          St.Errors.push_back(Err);
      }
      if (!St.C.Taken) {
        St.C.Replayed += 1;
        St.C.Incremental += Out.Incremental;
        St.C.Invalidated += static_cast<double>(Out.Invalidated);
      }
      Live = std::move(Out.R);
      LiveDB = std::move(Staged);
    }
  }

  if (!St.C.Taken) {
    St.C.InputTuples = static_cast<double>(DB.numInputFacts());
    St.C.DerivCs = static_cast<double>(Cs.Stat.Progress.Derivations);
    St.C.DerivTs = static_cast<double>(Ts.Stat.Progress.Derivations);
    St.C.TuplesCs = static_cast<double>(derivedTuples(Cs));
    St.C.TuplesTs = static_cast<double>(derivedTuples(Ts));
    St.C.DomainCs = static_cast<double>(Cs.Stat.DomainSize);
    St.C.DomainTs = static_cast<double>(Ts.Stat.DomainSize);
    St.C.OutputMb = dirMegabytes(Work + "/out-ts");
    St.C.Taken = true;
  }
}

int cmdTrace(const Args &A) {
  TraceState St;
  // Rounds come in pairs over one slice, one with the tracer off and one
  // with it on, in alternating order, so trace.overhead_frac compares equal
  // work run close together in time; it is the median over pairs of the
  // traced over the untraced wall, minus 1. A pair starts only if it
  // should end inside the measured time.
  std::vector<double> Wall[2];
  const auto Start = Clock::now();
  double PairWall = 0;
  for (std::uint64_t Slice = 0;
       Slice == 0 ||
       secondsBetween(Start, Clock::now()) + PairWall <= A.num("seconds");
       ++Slice) {
    const auto PairStart = Clock::now();
    for (bool Traced : {Slice % 2 == 1, Slice % 2 == 0}) {
      St.T.Enabled = Traced;
      const auto RoundStart = Clock::now();
      inProcessRound(St, A, Slice);
      Wall[Traced].push_back(secondsBetween(RoundStart, Clock::now()));
    }
    PairWall = secondsBetween(PairStart, Clock::now());
  }
  St.T.write(A.get("spans-out"));
  double TracedWall = 0;
  std::vector<double> Overhead;
  for (std::size_t I = 0; I < Wall[1].size(); ++I) {
    TracedWall += Wall[1][I];
    Overhead.push_back(Wall[1][I] / Wall[0][I] - 1);
  }

  const Counts &C = St.C;
  auto Med = [&](const char *Name) { return median(St.T.durations(Name)); };
  const double SolveCs = Med("analysis.solve_cs"),
               SolveTs = Med("analysis.solve_ts");
  JsonObject J;
  J.num("facts.read_s", Med("facts.read"));
  J.num("facts.input_tuples", C.InputTuples);
  J.num("analysis.solve_cs_s", SolveCs);
  J.num("analysis.solve_ts_s", SolveTs);
  J.num("analysis.derivations_cs", C.DerivCs);
  J.num("analysis.derivations_ts", C.DerivTs);
  J.num("analysis.tuples_cs", C.TuplesCs);
  J.num("analysis.tuples_ts", C.TuplesTs);
  J.num("analysis.new_ratio_cs", C.TuplesCs / C.DerivCs);
  J.num("analysis.new_ratio_ts", C.TuplesTs / C.DerivTs);
  J.num("analysis.ns_per_derivation_cs", SolveCs * 1e9 / C.DerivCs);
  J.num("analysis.ns_per_derivation_ts", SolveTs * 1e9 / C.DerivTs);
  J.num("ctx.domain_size_cs", C.DomainCs);
  J.num("ctx.domain_size_ts", C.DomainTs);
  J.num("analysis.write_cs_s", Med("analysis.write_cs"));
  J.num("analysis.write_ts_s", Med("analysis.write_ts"));
  J.num("analysis.output_mb", C.OutputMb);
  J.num("analysis.solve_prov_ts_s", Med("analysis.solve_prov_ts"));
  J.num("verify.closure_s", Med("verify.closure"));
  J.num("verify.support_s", Med("verify.support"));
  J.num("clients.alias_build_s", Med("clients.alias_build"));
  J.num("clients.taint_s", Med("clients.taint"));
  J.num("cfl.fallback_answers", St.CflAnswers);
  J.num("cfl.query_us", median(St.CflQueryUs));
  J.num("serve.init_s", Med("serve.init"));
  J.num("serve.answer_pts_us", median(St.AnswerUs[QPts]));
  J.num("serve.answer_alias_us", median(St.AnswerUs[QAlias]));
  J.num("serve.answer_taint_us", median(St.AnswerUs[QTaint]));
  J.num("serve.answer_p50_us", median(St.AllUs));
  J.num("serve.query_in_commit_p50_us", median(St.InCommitUs));
  J.num("serve.queries_in_commit", median(St.InCommitQueries));
  J.num("serve.resolve_add_ms", Med("serve.resolve_add") * 1e3);
  J.num("serve.resolve_rm_ms", Med("serve.resolve_rm") * 1e3);
  J.num("serve.commit_certify_ms", Med("serve.commit_certify") * 1e3);
  J.num("serve.journal_append_ms", Med("serve.journal_append") * 1e3);
  J.num("serve.incremental_frac", C.Incremental / C.Replayed);
  J.num("serve.invalidated", C.Invalidated);
  J.num("trace.covered_frac", St.T.coveredSeconds() / TracedWall);
  J.num("trace.overhead_frac", median(Overhead));
  J.num("trace.rounds", static_cast<double>(Wall[1].size()));
  J.raw("errors", jsonStrings(St.Errors));
  std::printf("%s\n", J.str().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  const std::string Cmd = argc > 1 ? argv[1] : "";
  if (Cmd == "gen" && argc == 6)
    return cmdGen(argv[2], std::strtoul(argv[3], nullptr, 10),
                  std::strtoull(argv[4], nullptr, 10), argv[5]);
  if (Cmd == "load" && argc == 4)
    return cmdLoad(argv[2], std::strtoul(argv[3], nullptr, 10));
  if (Cmd == "cal" && argc == 2)
    return cmdCal();
  if (Cmd == "mix")
    return cmdMix(parseArgs(argc, argv));
  if (Cmd == "ask")
    return cmdAsk(parseArgs(argc, argv));
  if (Cmd == "trace")
    return cmdTrace(parseArgs(argc, argv));
  std::fprintf(stderr, "usage: %s gen|load|cal|mix|ask|trace ... (see the "
                       "header of perfbench/ctp-perfbench.cpp)\n",
               argv[0]);
  return 2;
}
