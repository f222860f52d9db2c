//===- verify/Verify.cpp - Verification driver ----------------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Orchestrates the full check matrix over one fact database: per
// configuration x back-end, solve and certify (closure, support), then
// the cross-cutting differentials (native vs. datalog serialization,
// ladder monotonicity, CFL-oracle containment with demand-driven spot
// checks, snapshot round-trip). Rows append to the verdict report in a
// fixed order so two runs over the same inputs produce byte-identical
// reports.
//
//===----------------------------------------------------------------------===//

#include "analysis/DatalogFrontend.h"
#include "analysis/Solver.h"
#include "analysis/Unify.h"
#include "cfl/Demand.h"
#include "cfl/Oracle.h"
#include "clients/Diagnostics.h"
#include "clients/Taint.h"
#include "verify/Internal.h"
#include "verify/Verify.h"

#include <algorithm>
#include <map>

using namespace ctp;
using namespace ctp::analysis;
using namespace ctp::verify;
using namespace ctp::verify::detail;
using facts::FactDB;
using verdict::Status;

namespace {

/// (finer, coarser) configuration pairs with a theoretical containment
/// guarantee, checked when both members are part of the run:
///  - deeper context of the same flavour refines shallower (truncation
///    homomorphism): 2-object+H vs 1-object, 1-call+H vs 1-call;
///  - type contexts abstract object contexts (classOf homomorphism):
///    2-object+H vs 2-type+H;
///  - everything refines the insensitive baseline;
///  - cutshortcut refines insensitive (it only elides invocation-mixing
///    RET flow out of cut methods), and insensitive refines unify (the
///    unification view only adds assignment rows).
/// Cross-flavour pairs (e.g. 1-object vs 1-call+H) carry no such
/// guarantee and are deliberately not compared. Note cutshortcut has no
/// ordering against the context-sensitive rungs — its per-call-site
/// shortcuts and their conflation are incomparable with, say,
/// 2-object+H's context splitting — so no such pair appears here.
const std::pair<const char *, const char *> MonotonicPairs[] = {
    {"2-object+H", "1-object"},
    {"2-object+H", "2-type+H"},
    {"1-call+H", "1-call"},
    {"2-object+H", "insensitive"},
    {"2-hybrid+H", "insensitive"},
    {"2-type+H", "insensitive"},
    {"1-object", "insensitive"},
    {"1-call+H", "insensitive"},
    {"1-call", "insensitive"},
    {"cutshortcut", "insensitive"},
    {"insensitive", "unify"},
};

std::string renderCiPair(const char *Rel,
                         const std::array<std::uint32_t, 2> &P,
                         const std::vector<std::string> &ANames,
                         const std::vector<std::string> &BNames,
                         const char *AKind, const char *BKind) {
  return std::string(Rel) + "(" + entityName(ANames, P[0], AKind) + ", " +
         entityName(BNames, P[1], BKind) + ")";
}

/// First element of sorted \p A absent from sorted \p B, or nullptr.
template <typename T>
const T *firstNotIn(const std::vector<T> &A, const std::vector<T> &B) {
  auto It = B.begin();
  for (const T &X : A) {
    It = std::lower_bound(It, B.end(), X);
    if (It == B.end() || *It != X)
      return &X;
  }
  return nullptr;
}

/// Stable ids of the taint.flow warnings a result produces; \p Ends, when
/// non-null, receives each finding's witness endpoints (id -> heap etc.).
std::vector<std::string>
taintFlowIds(const FactDB &DB, const Results &R,
             std::map<std::string, clients::TaintEndpoint> *Ends = nullptr) {
  clients::SourceMap SM(DB);
  clients::Report Rep;
  clients::checkTaint(DB, R, SM, Rep, Ends);
  Rep.finalize();
  std::vector<std::string> Ids;
  for (const clients::Finding &F : Rep.findings())
    if (F.RuleId == "taint.flow")
      Ids.push_back(F.Id);
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

} // namespace

struct Certifier::Shared {
  Shared(const FactDB &Given, Results &R)
      : R(R), View(R.Config.SolveMode == ctx::Mode::Unify ? unifyView(Given)
                                                           : FactDB()),
        DB(R.Config.SolveMode == ctx::Mode::Unify ? View : Given), In(DB) {}

  Results &R;
  FactDB View; ///< unifyView of the given facts; empty for other modes.
  const FactDB &DB;
  InputIndices In;
  /// The closure views, built by the first closure(); their relation
  /// sets then serve support() too.
  std::unique_ptr<DerivedView> Joins;
  /// The relation sets of a support() run without a closure() before it.
  std::unique_ptr<DerivedSets> Sets;
};

Certifier::Certifier(const FactDB &DB, Results &R)
    : S(std::make_unique<Shared>(DB, R)) {}

Certifier::~Certifier() = default;

bool Certifier::closure(const ClosureOptions &Opts,
                        std::string &Counterexample) {
  if (!closureReady(S->R, Counterexample))
    return false;
  if (!S->Joins)
    S->Joins = std::make_unique<DerivedView>(S->DB, S->R);
  return closureOver(S->DB, S->R, S->In, *S->Joins, Opts, Counterexample);
}

bool Certifier::support(std::string &Counterexample) {
  if (!supportReady(S->R, Counterexample))
    return false;
  if (!S->Joins && !S->Sets)
    S->Sets = std::make_unique<DerivedSets>(S->R);
  return supportOver(S->DB, S->R, S->In,
                     S->Joins ? *S->Joins : *S->Sets, Counterexample);
}

const FactDB &Certifier::facts() const { return S->DB; }

bool verify::verifyFactDB(const FactDB &DB, const std::string &CellPrefix,
                          const VerifyOptions &Opts,
                          verdict::Report &Report) {
  bool AllOk = true;
  auto Row = [&](const std::string &Cell, const std::string &Name,
                 bool Ok, const std::string &Detail) {
    Report.add(Cell, Name, Ok ? Status::Pass : Status::Fail, Detail);
    AllOk &= Ok;
  };
  auto Skip = [&](const std::string &Cell, const std::string &Name,
                  const std::string &Why) {
    Report.add(Cell, Name, Status::Skip, Why);
  };

  std::vector<std::string> Names =
      Opts.Configs.empty() ? ctx::configNames() : Opts.Configs;
  std::vector<ctx::Config> Cfgs;
  for (const std::string &N : Names) {
    ctx::Config C;
    if (!ctx::configByName(N, Opts.Abs, C)) {
      Row(CellPrefix + "/" + N, "config", false,
          "unknown configuration name");
      return false;
    }
    Cfgs.push_back(C);
  }

  // Results kept for the cross-cutting checks, native preferred.
  std::map<std::string, Results> Kept;
  std::vector<std::string> KeptOrder;

  const char *NoDatalogWhy =
      "the datalog back-end has no rule set for contextless flavours";

  for (std::size_t I = 0; I < Cfgs.size(); ++I) {
    const std::string &Name = Names[I];
    // Contextless flavours certify on the native engine only.
    const bool Contextless = Cfgs[I].SolveMode != ctx::Mode::Contexts;
    const bool IsUnify = Cfgs[I].SolveMode == ctx::Mode::Unify;
    std::vector<std::string> NativeLines, DatalogLines;

    if (Opts.Native) {
      SolverOptions SO;
      // Unify certifies the view-backed native run: the fast union-find
      // path tags every tuple with the identity transformation, which is
      // ci-equivalent but not the exact tuple set the Figure-3 rules
      // close over. Requesting provenance routes solve() through the
      // native engine over unifyView(DB); the Certifier then checks
      // against that same view.
      SO.Provenance.Enabled = Opts.Support || IsUnify;
      Results R = solve(DB, Cfgs[I], SO);
      const std::string Cell = CellPrefix + "/" + Name + "/native";
      if (Opts.Closure || Opts.Support) {
        Certifier Cert(DB, R);
        std::string CE;
        if (Opts.Closure)
          Row(Cell, "closure", Cert.closure(ClosureOptions(), CE), CE);
        if (Opts.Support)
          Row(Cell, "support", Cert.support(CE), CE);
      }
      if (Opts.Differential && Opts.Datalog && !Contextless)
        NativeLines = canonicalLines(DB, R);
      KeptOrder.push_back(Name);
      Kept.emplace(Name, std::move(R));
    }

    if (Opts.Datalog) {
      const std::string Cell = CellPrefix + "/" + Name + "/datalog";
      if (Contextless) {
        if (Opts.Closure)
          Skip(Cell, "closure", NoDatalogWhy);
        if (Opts.Support)
          Skip(Cell, "support", NoDatalogWhy);
      } else {
        Results R = solveViaDatalog(DB, Cfgs[I]);
        std::string CE;
        if (Opts.Closure)
          Row(Cell, "closure",
              checkClosure(DB, R, ClosureOptions(), CE), CE);
        if (Opts.Support)
          Skip(Cell, "support",
               "first-derivation provenance is native-solver-only");
        if (Opts.Differential && Opts.Native)
          DatalogLines = canonicalLines(DB, R);
        if (!Opts.Native) {
          KeptOrder.push_back(Name);
          Kept.emplace(Name, std::move(R));
        }
      }
    }

    if (Opts.Differential) {
      const std::string Cell =
          CellPrefix + "/" + Name + "/native-vs-datalog";
      if (Contextless) {
        Skip(Cell, "differential", NoDatalogWhy);
      } else if (Opts.Native && Opts.Datalog) {
        std::string CE;
        Row(Cell, "differential",
            diffLines(NativeLines, "native", DatalogLines, "datalog", CE),
            CE);
      } else {
        Skip(Cell, "differential", "requires both back-ends");
      }
    }
  }

  if (Opts.Monotonic) {
    for (const auto &[Finer, Coarser] : MonotonicPairs) {
      auto FIt = Kept.find(Finer), CIt = Kept.find(Coarser);
      if (FIt == Kept.end() || CIt == Kept.end())
        continue;
      const Results &RF = FIt->second, &RC = CIt->second;
      const std::string Cell =
          CellPrefix + "/" + Finer + "<=" + Coarser;
      std::string CE;
      bool Ok = true;
      if (const auto *X = firstNotIn(RF.ciPts(), RC.ciPts())) {
        Ok = false;
        CE = "finer rung derives " +
             renderCiPair("pts_ci", *X, DB.VarNames, DB.HeapNames,
                          "var", "heap") +
             " that the coarser rung refutes";
      } else if (const auto *Y = firstNotIn(RF.ciHpts(), RC.ciHpts())) {
        Ok = false;
        CE = "finer rung derives hpts_ci(" +
             entityName(DB.HeapNames, (*Y)[0], "heap") + "." +
             entityName(DB.FieldNames, (*Y)[1], "field") + ", " +
             entityName(DB.HeapNames, (*Y)[2], "heap") +
             ") that the coarser rung refutes";
      } else if (const auto *Z = firstNotIn(RF.ciCall(), RC.ciCall())) {
        Ok = false;
        CE = "finer rung derives " +
             renderCiPair("call_ci", *Z, DB.InvokeNames,
                          DB.MethodNames, "invoke", "method") +
             " that the coarser rung refutes";
      } else {
        // Taint warnings are subset-monotone except through the
        // sanitizer veto: a coarser run can point a sanitizer's result
        // at more heaps and launder a flow the finer rung reports (the
        // caveat in clients/Taint.h). Exempt exactly those findings —
        // any other missing finding is a monotonicity bug.
        std::map<std::string, clients::TaintEndpoint> FEnds;
        const std::vector<std::string> FIds = taintFlowIds(DB, RF, &FEnds);
        const std::vector<std::string> CIds = taintFlowIds(DB, RC);
        const clients::TaintInfo CInfo = clients::computeTaint(DB, RC);
        for (const std::string &Id : FIds) {
          if (std::binary_search(CIds.begin(), CIds.end(), Id))
            continue;
          const auto EIt = FEnds.find(Id);
          const facts::Id H = EIt == FEnds.end() ? facts::InvalidId
                                                 : EIt->second.Heap;
          if (H < CInfo.Sanitized.size() && CInfo.Sanitized[H])
            continue;
          Ok = false;
          CE = "finer rung reports taint.flow " + Id +
               " that the coarser rung does not";
          break;
        }
      }
      Row(Cell, "monotonic", Ok, CE);
    }
  }

  if (Opts.Oracle) {
    cfl::OracleResult O = cfl::solveInsensitive(DB);
    cfl::DemandSolver DS(DB);
    std::vector<std::uint32_t> Queries =
        cfl::sampleQueryVars(DB, Opts.Samples, Opts.Seed);
    for (const std::string &Name : KeptOrder) {
      const Results &R = Kept.at(Name);
      const std::string Cell = CellPrefix + "/" + Name + "/oracle";
      std::string CE;
      bool Ok = true;
      if (Name == "unify") {
        // Unify is COARSER than the insensitive fixpoint the oracle
        // computes, so the soundness direction reverses: every
        // L_F-derivable fact must be contained in the unify answer, and
        // every demand-query pointee must be included too.
        if (const auto *X = firstNotIn(O.Pts, R.ciPts())) {
          Ok = false;
          CE = "unify run misses oracle fact " +
               renderCiPair("pts_ci", *X, DB.VarNames, DB.HeapNames,
                            "var", "heap");
        } else if (const auto *Y = firstNotIn(O.Calls, R.ciCall())) {
          Ok = false;
          CE = "unify run misses oracle edge " +
               renderCiPair("call_ci", *Y, DB.InvokeNames,
                            DB.MethodNames, "invoke", "method");
        }
        std::size_t Checked = 0;
        for (std::uint32_t V : Queries) {
          if (!Ok)
            break;
          cfl::DemandAnswer A = DS.query(V);
          if (A.BudgetExceeded)
            continue;
          ++Checked;
          if (const auto *Hp = firstNotIn(A.Heaps, R.pointsTo(V))) {
            Ok = false;
            CE = "demand query on " +
                 entityName(DB.VarNames, V, "var") + " derives pointee " +
                 entityName(DB.HeapNames, *Hp, "heap") +
                 " that the unify run misses";
          }
        }
        if (Ok)
          CE = "contains the oracle; " + std::to_string(Checked) +
               " demand spot checks";
        Row(Cell, "oracle", Ok, CE);
        continue;
      }
      if (const auto *X = firstNotIn(R.ciPts(), O.Pts)) {
        Ok = false;
        CE = "unsound vs. CFL oracle: " +
             renderCiPair("pts_ci", *X, DB.VarNames, DB.HeapNames,
                          "var", "heap") +
             " is not L_F-derivable";
      }
      if (Ok && Name == "insensitive") {
        // m = h = 0 must match the oracle exactly, not just contain it.
        if (const auto *X = firstNotIn(O.Pts, R.ciPts())) {
          Ok = false;
          CE = "insensitive run misses oracle fact " +
               renderCiPair("pts_ci", *X, DB.VarNames, DB.HeapNames,
                            "var", "heap");
        } else if (const auto *Y = firstNotIn(O.Calls, R.ciCall())) {
          Ok = false;
          CE = "insensitive run misses oracle edge " +
               renderCiPair("call_ci", *Y, DB.InvokeNames,
                            DB.MethodNames, "invoke", "method");
        }
      }
      std::size_t Checked = 0;
      for (std::uint32_t V : Queries) {
        if (!Ok)
          break;
        cfl::DemandAnswer A = DS.query(V);
        if (A.BudgetExceeded)
          continue; // An exhausted query proves nothing either way.
        ++Checked;
        if (const auto *Hp = firstNotIn(R.pointsTo(V), A.Heaps)) {
          Ok = false;
          CE = "demand query on " + entityName(DB.VarNames, V, "var") +
               " refutes pointee " +
               entityName(DB.HeapNames, *Hp, "heap");
        }
      }
      if (Ok)
        CE = "contained in oracle; " + std::to_string(Checked) +
             " demand spot checks";
      Row(Cell, "oracle", Ok, CE);
    }
  }

  if (Opts.Snapshot) {
    const std::string First = Names.empty() ? std::string() : Names.front();
    if (Opts.SnapshotDir.empty()) {
      Skip(CellPrefix + "/" + First + "/snapshot", "snapshot",
           "no snapshot directory configured");
    } else {
      std::string CE;
      if (Opts.Native)
        Row(CellPrefix + "/" + First + "/native/snapshot", "snapshot",
            checkSnapshotRoundTrip(DB, Cfgs.front(), /*UseDatalog=*/false,
                                   Opts.SnapshotDir, CE),
            CE);
      if (Opts.Datalog)
        Row(CellPrefix + "/" + First + "/datalog/snapshot", "snapshot",
            checkSnapshotRoundTrip(DB, Cfgs.front(), /*UseDatalog=*/true,
                                   Opts.SnapshotDir, CE),
            CE);
    }
  }

  return AllOk;
}
