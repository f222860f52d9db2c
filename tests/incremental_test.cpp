//===- tests/incremental_test.cpp - Transactional re-solve units ----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Unit coverage for transactional incremental re-solve: the fact-delta
// language (exact-edit semantics, entity append-only rule, the cold-solve
// flag), the re-solve's equivalence with a cold solve of the edited facts
// (narrow additions continue, every other delta re-solves cold and keeps
// provenance so the next addition continues again), the crash-safe
// journal (checksummed records, torn-tail truncation,
// committed-transaction folding, recovery aborts, journal discard on
// fingerprint mismatch), and the in-process service transaction verbs
// (epoch publication, commit bodies, abort byte-identity, guard rails,
// sabotaged certification). The out-of-process SIGKILL loop lives in
// crashloop.sh --delta (ctest: delta_chaos).
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "serve/Delta.h"
#include "serve/Service.h"
#include "serve/Txn.h"
#include "serve/Wire.h"
#include "verify/Verify.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace ctp;
using namespace ctp::serve;

namespace {

/// The shared base workload: extracted once, copied per test (FactDB is
/// plain data, cheap to copy next to a solve).
const facts::FactDB &baseDB() {
  static const facts::FactDB DB =
      facts::extract(workload::generatePreset("antlr"));
  return DB;
}

ctx::Config config() {
  ctx::Config Cfg;
  EXPECT_TRUE(ctx::configByName("2-object+H",
                                ctx::Abstraction::TransformerString, Cfg));
  return Cfg;
}

bool hasAssign(const facts::FactDB &DB, facts::Id From, facts::Id To) {
  for (const auto &F : DB.Assigns)
    if (F.From == From && F.To == To)
      return true;
  return false;
}

/// An assign edge absent from the base facts, as delta-op operand text.
std::string freshAssignArgs() {
  const facts::FactDB &DB = baseDB();
  for (facts::Id A = 0; A < DB.numVars() && A < 24; ++A)
    for (facts::Id B = 0; B < DB.numVars() && B < 24; ++B)
      if (A != B && !hasAssign(DB, A, B))
        return DB.VarNames[A] + " " + DB.VarNames[B];
  ADD_FAILURE() << "no absent assign edge among the first 24 variables";
  return "";
}

/// An assign edge present in the base facts, as delta-op operand text.
std::string existingAssignArgs() {
  const facts::FactDB &DB = baseDB();
  EXPECT_FALSE(DB.Assigns.empty());
  return DB.VarNames[DB.Assigns.front().From] + " " +
         DB.VarNames[DB.Assigns.front().To];
}

std::string tempDir() {
  std::string Tmpl = "/tmp/ctp_incr_XXXXXX";
  char *D = ::mkdtemp(Tmpl.data());
  EXPECT_NE(D, nullptr);
  return D ? D : "";
}

void removeTree(const std::string &Dir) {
  std::string Cmd = "rm -rf '" + Dir + "'";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);
}

} // namespace

//===----------------------------------------------------------------------===//
// The fact-delta language.
//===----------------------------------------------------------------------===//

TEST(DeltaLanguage, AddThenRemoveRestoresTheDatabase) {
  facts::FactDB DB = baseDB();
  const std::uint64_t Fp0 = DB.fingerprint();
  const std::size_t N0 = DB.Assigns.size();
  std::string Args = freshAssignArgs();
  analysis::InputDelta D;
  EXPECT_EQ(applyDeltaOp("add assign " + Args, DB, D), "");
  EXPECT_EQ(DB.Assigns.size(), N0 + 1);
  ASSERT_EQ(D.AddAssigns.size(), 1u);
  EXPECT_NE(DB.fingerprint(), Fp0);
  EXPECT_FALSE(D.NeedsColdSolve);
  EXPECT_EQ(applyDeltaOp("rm assign " + Args, DB, D), "");
  EXPECT_EQ(DB.Assigns.size(), N0);
  EXPECT_TRUE(D.NeedsColdSolve);
  EXPECT_EQ(DB.fingerprint(), Fp0);
  EXPECT_EQ(DB.validate(), "");
}

TEST(DeltaLanguage, ExactEditSemanticsRejectNoOps) {
  facts::FactDB DB = baseDB();
  const std::uint64_t Fp0 = DB.fingerprint();
  analysis::InputDelta D;
  // A duplicate add and a missing rm both name the offending row.
  EXPECT_NE(applyDeltaOp("add assign " + existingAssignArgs(), DB, D), "");
  EXPECT_NE(applyDeltaOp("rm assign " + freshAssignArgs(), DB, D), "");
  // Unknown names, predicates, and arities are rejected up front.
  EXPECT_NE(applyDeltaOp("add assign no.such.var " +
                             DB.VarNames[0],
                         DB, D),
            "");
  EXPECT_NE(applyDeltaOp("add frobnicate a b", DB, D), "");
  EXPECT_NE(applyDeltaOp("add assign " + DB.VarNames[0], DB, D), "");
  EXPECT_NE(applyDeltaOp("", DB, D), "");
  // All-or-nothing: nothing above touched the database or the summary.
  EXPECT_EQ(DB.fingerprint(), Fp0);
  EXPECT_TRUE(D.AddAssigns.empty());
  EXPECT_FALSE(D.NeedsColdSolve);
}

TEST(DeltaLanguage, EntitiesAreAppendOnly) {
  facts::FactDB DB = baseDB();
  analysis::InputDelta D;
  const std::size_t Vars0 = DB.numVars();
  std::string Method = DB.MethodNames[0];
  EXPECT_EQ(applyDeltaOp("add entity var brand.new/v " + Method, DB, D),
            "");
  EXPECT_EQ(DB.numVars(), Vars0 + 1);
  EXPECT_EQ(DB.VarParent.size(), DB.numVars());
  // The new variable is immediately usable in later ops of the delta.
  EXPECT_EQ(applyDeltaOp("add assign " + DB.VarNames[0] + " brand.new/v",
                         DB, D),
            "");
  // Duplicate names and entity removal do not exist.
  EXPECT_NE(applyDeltaOp("add entity var brand.new/v " + Method, DB, D),
            "");
  EXPECT_NE(applyDeltaOp("rm entity var brand.new/v " + Method, DB, D),
            "");
  EXPECT_EQ(DB.validate(), "");
}

TEST(DeltaLanguage, SideConditionsAndRemovalsNeedAColdSolve) {
  const facts::FactDB &Base = baseDB();
  ASSERT_FALSE(Base.HeapTypes.empty());
  ASSERT_FALSE(Base.InvokeNames.empty());
  ASSERT_FALSE(Base.EntryMethods.empty());
  const auto &HT = Base.HeapTypes.front();
  const std::string HeapType =
      Base.HeapNames[HT.Heap] + " " + Base.TypeNames[HT.Type];
  const std::string Entry = Base.MethodNames[Base.EntryMethods.front()];
  struct Case {
    std::vector<std::string> Ops;
    bool Cold;
  };
  const std::vector<Case> Cases = {
      {{"rm heap_type " + HeapType}, true},
      {{"rm heap_type " + HeapType, "add heap_type " + HeapType}, true},
      {{"rm entry " + Entry}, true},
      {{"rm entry " + Entry, "add entry " + Entry}, true},
      // Client annotations are invisible to the solver.
      {{"add sanitizer " + Base.InvokeNames[0]}, false},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Ops.back());
    facts::FactDB DB = Base;
    analysis::InputDelta D;
    ASSERT_EQ(applyDeltaOps(C.Ops, DB, D), "");
    EXPECT_EQ(D.NeedsColdSolve, C.Cold);
    EXPECT_TRUE(D.AddAssigns.empty());
  }
}

TEST(DeltaLanguage, OpListsStopAtTheFirstFailure) {
  facts::FactDB DB = baseDB();
  analysis::InputDelta D;
  std::vector<std::string> Ops = {"add assign " + freshAssignArgs(),
                                  "add frobnicate a b"};
  std::string Err = applyDeltaOps(Ops, DB, D);
  EXPECT_NE(Err.find("op 2:"), std::string::npos) << Err;
  // The first op stays applied — journal replay treats this as fatal.
  EXPECT_EQ(D.AddAssigns.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Incremental re-solve vs. a cold solve of the edited facts.
//===----------------------------------------------------------------------===//

namespace {

/// Solves the base facts once with provenance, for every incremental
/// test to re-solve from.
const analysis::Results &convergedBase() {
  static const analysis::Results R = [] {
    analysis::SolverOptions SO;
    SO.Provenance.Enabled = true;
    return analysis::solve(baseDB(), config(), SO);
  }();
  EXPECT_EQ(R.Stat.Term, TerminationReason::Converged);
  EXPECT_NE(R.Prov, nullptr);
  return R;
}

/// Requires the outcome to serialize exactly like a cold solve of the
/// edited database, and to certify under closure and support.
void expectColdEquivalent(const facts::FactDB &Edited,
                          analysis::IncrementalOutcome &Out) {
  ASSERT_EQ(Out.R.Stat.Term, TerminationReason::Converged);
  analysis::Results Cold = analysis::solve(Edited, config());
  std::string CE;
  EXPECT_TRUE(verify::diffLines(verify::canonicalLines(Edited, Cold),
                                "cold", verify::canonicalLines(Edited, Out.R),
                                "re-solve", CE))
      << CE;
  EXPECT_TRUE(verify::checkClosure(Edited, Out.R, verify::ClosureOptions(),
                                   CE))
      << CE;
  ASSERT_NE(Out.R.Prov, nullptr);
  EXPECT_TRUE(verify::checkSupport(Edited, Out.R, CE)) << CE;
}

} // namespace

TEST(IncrementalSolve, OnlyNarrowAdditionsContinue) {
  const facts::FactDB &Base = baseDB();
  // The first proper (non-reflexive) subtype row.
  auto ST = std::find_if(Base.Subtypes.begin(), Base.Subtypes.end(),
                         [](const auto &F) { return F.Sub != F.Super; });
  ASSERT_NE(ST, Base.Subtypes.end());
  auto HasSubtype = [&Base](facts::Id Sub, facts::Id Super) {
    for (const auto &F : Base.Subtypes)
      if (F.Sub == Sub && F.Super == Super)
        return true;
    return false;
  };
  const facts::Id Sub = ST->Super, Super = ST->Sub; // The reversed pair.
  ASSERT_FALSE(HasSubtype(Sub, Super));
  struct Case {
    std::string Op;
    bool Incremental;
  };
  const std::vector<Case> Cases = {
      {"add assign " + freshAssignArgs(), true},
      {"rm assign " + existingAssignArgs(), false},
      {"add subtype " + Base.TypeNames[Sub] + " " + Base.TypeNames[Super],
       false},
      {"rm subtype " + Base.TypeNames[ST->Sub] + " " +
           Base.TypeNames[ST->Super],
       false},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Op);
    facts::FactDB Edited = Base;
    analysis::InputDelta D;
    ASSERT_EQ(applyDeltaOp(C.Op, Edited, D), "");
    analysis::IncrementalOutcome Out =
        analysis::resolveIncremental(Edited, config(), convergedBase(), D);
    EXPECT_EQ(Out.Incremental, C.Incremental) << Out.FallbackReason;
    EXPECT_EQ(Out.FallbackReason.empty(), C.Incremental);
    EXPECT_EQ(Out.Invalidated,
              C.Incremental ? 0u : convergedBase().numTuples());
    expectColdEquivalent(Edited, Out);
  }
}

TEST(IncrementalSolve, AdditionAfterAColdRemovalContinuesAgain) {
  facts::FactDB Removed = baseDB();
  analysis::InputDelta DRm;
  const std::string Args = existingAssignArgs();
  ASSERT_EQ(applyDeltaOp("rm assign " + Args, Removed, DRm), "");
  analysis::IncrementalOutcome Cold =
      analysis::resolveIncremental(Removed, config(), convergedBase(), DRm);
  ASSERT_FALSE(Cold.Incremental);
  // The cold fallback records provenance, so the next addition (here the
  // removed edge, re-added) continues from it.
  facts::FactDB Readded = Removed;
  analysis::InputDelta DAdd;
  ASSERT_EQ(applyDeltaOp("add assign " + Args, Readded, DAdd), "");
  analysis::IncrementalOutcome Out =
      analysis::resolveIncremental(Readded, config(), Cold.R, DAdd);
  EXPECT_TRUE(Out.Incremental) << Out.FallbackReason;
  EXPECT_EQ(Out.Invalidated, 0u);
  expectColdEquivalent(Readded, Out);
}

TEST(IncrementalSolve, EveryNarrowPredicateReaddsIncrementally) {
  // One row of each narrow predicate, as "<predicate> <operands>" op
  // text: the middle row, so it joins against a solved neighbourhood.
  const facts::FactDB &Base = baseDB();
  auto N = [](const std::vector<std::string> &Names, facts::Id I) {
    return " " + Names[I];
  };
  auto Num = [](facts::Id I) { return " " + std::to_string(I); };
  std::vector<std::string> Rows;
  auto Row = [&Rows](const char *Pred, const auto &Table, auto Operands) {
    if (Table.empty()) {
      ADD_FAILURE() << "the base facts have no " << Pred << " row";
      return;
    }
    Rows.push_back(Pred + Operands(Table[Table.size() / 2]));
  };
  const auto &V = Base.VarNames, &Me = Base.MethodNames,
             &In = Base.InvokeNames;
  Row("assign", Base.Assigns,
      [&](const auto &F) { return N(V, F.From) + N(V, F.To); });
  Row("cast", Base.Casts, [&](const auto &F) {
    return N(V, F.From) + N(V, F.To) + N(Base.TypeNames, F.Type);
  });
  Row("load", Base.Loads, [&](const auto &F) {
    return N(V, F.Base) + N(Base.FieldNames, F.Field) + N(V, F.To);
  });
  Row("store", Base.Stores, [&](const auto &F) {
    return N(V, F.From) + N(Base.FieldNames, F.Field) + N(V, F.Base);
  });
  Row("actual", Base.Actuals, [&](const auto &F) {
    return N(V, F.Var) + N(In, F.Invoke) + Num(F.Ordinal);
  });
  Row("formal", Base.Formals, [&](const auto &F) {
    return N(V, F.Var) + N(Me, F.Method) + Num(F.Ordinal);
  });
  Row("return", Base.Returns,
      [&](const auto &F) { return N(V, F.Var) + N(Me, F.Method); });
  Row("assign_return", Base.AssignReturns,
      [&](const auto &F) { return N(In, F.Invoke) + N(V, F.To); });
  Row("throw", Base.Throws,
      [&](const auto &F) { return N(V, F.Var) + N(Me, F.Method); });
  Row("catch", Base.Catches,
      [&](const auto &F) { return N(In, F.Invoke) + N(V, F.To); });
  Row("virtual_invoke", Base.VirtualInvokes, [&](const auto &F) {
    return N(In, F.Invoke) + N(V, F.Receiver) + N(Base.SigNames, F.Sig);
  });
  Row("static_invoke", Base.StaticInvokes, [&](const auto &F) {
    return N(In, F.Invoke) + N(Me, F.Target) + N(Me, F.InMethod);
  });
  Row("assign_new", Base.AssignNews, [&](const auto &F) {
    return N(Base.HeapNames, F.Heap) + N(V, F.To) + N(Me, F.InMethod);
  });
  Row("global_store", Base.GlobalStores, [&](const auto &F) {
    return N(V, F.From) + N(Base.GlobalNames, F.Global);
  });
  Row("global_load", Base.GlobalLoads, [&](const auto &F) {
    return N(Base.GlobalNames, F.Global) + N(V, F.To) + N(Me, F.InMethod);
  });
  ASSERT_EQ(Rows.size(), 15u);

  for (const std::string &R : Rows) {
    SCOPED_TRACE(R);
    facts::FactDB Removed = Base;
    analysis::InputDelta DRm;
    ASSERT_EQ(applyDeltaOp("rm " + R, Removed, DRm), "");
    analysis::IncrementalOutcome Cold =
        analysis::resolveIncremental(Removed, config(), convergedBase(), DRm);
    ASSERT_FALSE(Cold.Incremental);
    facts::FactDB Readded = Removed;
    analysis::InputDelta DAdd;
    ASSERT_EQ(applyDeltaOp("add " + R, Readded, DAdd), "");
    analysis::IncrementalOutcome Out =
        analysis::resolveIncremental(Readded, config(), Cold.R, DAdd);
    EXPECT_TRUE(Out.Incremental) << Out.FallbackReason;
    expectColdEquivalent(Readded, Out);
  }
}

//===----------------------------------------------------------------------===//
// The crash-safe journal.
//===----------------------------------------------------------------------===//

TEST(Journal, RecordsRoundTripAndRejectTampering) {
  JournalRecord B;
  B.K = JournalRecord::Kind::Begin;
  B.Tx = "t3";
  B.Epoch = 2;
  B.Fp = 0xdeadbeefcafef00dull;
  std::string Line = renderRecord(B);
  JournalRecord Back;
  ASSERT_TRUE(parseRecord(Line, Back));
  EXPECT_EQ(Back.K, B.K);
  EXPECT_EQ(Back.Tx, B.Tx);
  EXPECT_EQ(Back.Epoch, B.Epoch);
  EXPECT_EQ(Back.Fp, B.Fp);
  // Any flipped byte breaks the checksum; a reshuffled field count or a
  // bogus kind breaks the parse.
  std::string Tampered = Line;
  Tampered[0] = 'x';
  EXPECT_FALSE(parseRecord(Tampered, Back));
  Tampered = Line;
  Tampered[Tampered.find("t3") + 1] = '9';
  EXPECT_FALSE(parseRecord(Tampered, Back));
  EXPECT_FALSE(parseRecord("", Back));
  EXPECT_FALSE(parseRecord("begin\tt1", Back));

  JournalRecord Op;
  Op.K = JournalRecord::Kind::Op;
  Op.Tx = "t3";
  Op.Text = "add assign a\tb\nmore"; // Flattened to stay one line.
  std::string OpLine = renderRecord(Op);
  EXPECT_EQ(OpLine.find('\n'), std::string::npos);
  ASSERT_TRUE(parseRecord(OpLine, Back));
  EXPECT_EQ(Back.Text, "add assign a b more");
}

TEST(Journal, ScanStopsAtATornTail) {
  std::string Dir = tempDir();
  std::string Path = Dir + "/j";
  JournalRecord B;
  B.K = JournalRecord::Kind::Begin;
  B.Tx = "t1";
  B.Fp = baseDB().fingerprint();
  ASSERT_EQ(appendRecord(Path, B), "");
  JournalScan S;
  ASSERT_EQ(scanJournal(Path, S), "");
  ASSERT_EQ(S.Records.size(), 1u);
  EXPECT_TRUE(S.Exists);
  EXPECT_FALSE(S.TornTail);
  const std::uint64_t Good = S.GoodBytes;

  // A SIGKILL mid-append leaves a partial, unterminated line.
  {
    std::ofstream F(Path, std::ios::app | std::ios::binary);
    F << "commit\tt1\t1\tdead";
  }
  ASSERT_EQ(scanJournal(Path, S), "");
  ASSERT_EQ(S.Records.size(), 1u);
  EXPECT_TRUE(S.TornTail);
  EXPECT_EQ(S.GoodBytes, Good);

  // A missing journal is a successful empty scan, not an error.
  ASSERT_EQ(scanJournal(Dir + "/absent", S), "");
  EXPECT_FALSE(S.Exists);
  EXPECT_TRUE(S.Records.empty());
  removeTree(Dir);
}

namespace {

/// Appends a full committed transaction (begin/op/commit) for the given
/// delta op lines, returning the edited database's fingerprint.
std::uint64_t journalCommittedTxn(const std::string &Path,
                                  const std::string &Tx,
                                  std::uint64_t BaseEpoch,
                                  facts::FactDB &DB,
                                  const std::vector<std::string> &Ops) {
  JournalRecord R;
  R.K = JournalRecord::Kind::Begin;
  R.Tx = Tx;
  R.Epoch = BaseEpoch;
  R.Fp = DB.fingerprint();
  EXPECT_EQ(appendRecord(Path, R), "");
  analysis::InputDelta D;
  for (const std::string &Op : Ops) {
    R.K = JournalRecord::Kind::Op;
    R.Text = Op;
    EXPECT_EQ(appendRecord(Path, R), "");
    EXPECT_EQ(applyDeltaOp(Op, DB, D), "");
  }
  R.K = JournalRecord::Kind::Commit;
  R.Epoch = BaseEpoch + 1;
  R.Fp = DB.fingerprint();
  R.Text.clear();
  EXPECT_EQ(appendRecord(Path, R), "");
  return R.Fp;
}

} // namespace

TEST(Journal, ReplayFoldsCommittedTransactions) {
  std::string Dir = tempDir();
  std::string Path = Dir + "/j";
  facts::FactDB Edited = baseDB();
  std::string Add = "add assign " + freshAssignArgs();
  std::string Rm = "rm assign " + existingAssignArgs();
  std::uint64_t Fp1 = journalCommittedTxn(Path, "t1", 0, Edited, {Add});
  std::uint64_t Fp2 = journalCommittedTxn(Path, "t2", 1, Edited, {Rm});
  EXPECT_NE(Fp1, Fp2);

  facts::FactDB Replayed = baseDB();
  ReplayOutcome RO;
  ASSERT_EQ(replayJournal(Path, Replayed, RO), "");
  EXPECT_FALSE(RO.DiscardedJournal);
  EXPECT_EQ(RO.Epoch, 2u);
  EXPECT_EQ(RO.CommittedTxns, 2u);
  EXPECT_EQ(RO.NextTxnSeq, 3u);
  EXPECT_EQ(RO.RecoveryAbortTx, "");
  EXPECT_EQ(Replayed.fingerprint(), Fp2);
  removeTree(Dir);
}

TEST(Journal, ReplayTruncatesATornTailDurably) {
  std::string Dir = tempDir();
  std::string Path = Dir + "/j";
  facts::FactDB Edited = baseDB();
  std::uint64_t Fp =
      journalCommittedTxn(Path, "t1", 0, Edited,
                          {"add assign " + freshAssignArgs()});
  {
    std::ofstream F(Path, std::ios::app | std::ios::binary);
    F << "begin\tt2\t1\t01"; // Torn mid-append by the "crash".
  }
  facts::FactDB Replayed = baseDB();
  ReplayOutcome RO;
  ASSERT_EQ(replayJournal(Path, Replayed, RO), "");
  EXPECT_EQ(RO.Epoch, 1u);
  EXPECT_EQ(Replayed.fingerprint(), Fp);
  // The torn bytes are gone from disk, not merely skipped.
  JournalScan S;
  ASSERT_EQ(scanJournal(Path, S), "");
  EXPECT_FALSE(S.TornTail);
  EXPECT_EQ(S.Records.size(), 3u);
  removeTree(Dir);
}

TEST(Journal, ReplayRecoveryAbortsAnOpenTransaction) {
  std::string Dir = tempDir();
  std::string Path = Dir + "/j";
  JournalRecord R;
  R.K = JournalRecord::Kind::Begin;
  R.Tx = "t1";
  R.Epoch = 0;
  R.Fp = baseDB().fingerprint();
  ASSERT_EQ(appendRecord(Path, R), "");
  R.K = JournalRecord::Kind::Op;
  R.Text = "add assign " + freshAssignArgs();
  ASSERT_EQ(appendRecord(Path, R), "");

  facts::FactDB Replayed = baseDB();
  ReplayOutcome RO;
  ASSERT_EQ(replayJournal(Path, Replayed, RO), "");
  EXPECT_EQ(RO.Epoch, 0u);
  EXPECT_EQ(RO.RecoveryAbortTx, "t1");
  EXPECT_EQ(RO.NextTxnSeq, 2u);
  // The buffered op never touched the database.
  EXPECT_EQ(Replayed.fingerprint(), baseDB().fingerprint());
  // The abort is durable: a second replay finds a closed journal.
  facts::FactDB Again = baseDB();
  ReplayOutcome RO2;
  ASSERT_EQ(replayJournal(Path, Again, RO2), "");
  EXPECT_EQ(RO2.RecoveryAbortTx, "");
  EXPECT_EQ(RO2.Epoch, 0u);
  JournalScan S;
  ASSERT_EQ(scanJournal(Path, S), "");
  ASSERT_FALSE(S.Records.empty());
  EXPECT_EQ(S.Records.back().K, JournalRecord::Kind::Aborted);
  removeTree(Dir);
}

TEST(Journal, FingerprintMismatchDiscardsTheWholeJournal) {
  std::string Dir = tempDir();
  std::string Path = Dir + "/j";
  JournalRecord R;
  R.K = JournalRecord::Kind::Begin;
  R.Tx = "t1";
  R.Epoch = 0;
  R.Fp = baseDB().fingerprint() + 1; // A different facts directory.
  ASSERT_EQ(appendRecord(Path, R), "");

  facts::FactDB Replayed = baseDB();
  ReplayOutcome RO;
  ASSERT_EQ(replayJournal(Path, Replayed, RO), "");
  EXPECT_TRUE(RO.DiscardedJournal);
  EXPECT_FALSE(RO.Warnings.empty());
  EXPECT_EQ(::access((Path + ".stale").c_str(), F_OK), 0);
  EXPECT_NE(::access(Path.c_str(), F_OK), 0);
  removeTree(Dir);
}

//===----------------------------------------------------------------------===//
// Service transactions (in-process).
//===----------------------------------------------------------------------===//

namespace {

Request req(const std::string &Payload) {
  Request Q;
  EXPECT_EQ(parseRequest(Payload, Q), "");
  return Q;
}

/// A transactional service over a throwaway checkpoint directory.
struct TxnService {
  std::string Dir = tempDir();
  Service S;
  TxnService()
      : S([this] {
          ServiceOptions O;
          O.Preset = "antlr";
          O.ConfigName = "2-object+H";
          O.CheckpointDir = Dir;
          return O;
        }()) {
    EXPECT_EQ(S.init(), "");
  }
  ~TxnService() { removeTree(Dir); }
  Response ask(const std::string &Payload) { return S.answer(req(Payload)); }
};

} // namespace

TEST(ServiceTxn, CommitPublishesANewCertifiedEpoch) {
  TxnService T;
  EXPECT_EQ(T.S.epoch(), 0u);
  Response Pre = T.ask("1\tpts\t" + baseDB().VarNames[0]);
  EXPECT_EQ(Pre.Epoch, 0u);

  Response Begin = T.ask("2\tbegin");
  ASSERT_EQ(Begin.Status, StatusOk) << Begin.Body;
  EXPECT_EQ(Begin.Body, "t1");
  std::string Args = freshAssignArgs();
  Args[Args.find(' ')] = '\t';
  Response Op = T.ask("3\tdelta\tadd\tassign\t" + Args);
  ASSERT_EQ(Op.Status, StatusOk) << Op.Body;
  Response Stat = T.ask("4\ttxstat");
  EXPECT_NE(Stat.Body.find("open=t1"), std::string::npos) << Stat.Body;
  EXPECT_NE(Stat.Body.find("staged_ops=1"), std::string::npos) << Stat.Body;

  Response Commit = T.ask("5\tcommit");
  ASSERT_EQ(Commit.Status, StatusOk) << Commit.Body;
  EXPECT_EQ(Commit.Epoch, 1u);
  // A cold-started service keeps its provenance graph, so an add-only
  // delta must take the incremental path, not a full re-solve.
  EXPECT_EQ(Commit.Body, "committed incremental");
  EXPECT_EQ(T.S.epoch(), 1u);
  // Every subsequent answer is stamped with the committed epoch.
  EXPECT_EQ(T.ask("6\tping").Epoch, 1u);
  Response Stat2 = T.ask("7\ttxstat");
  EXPECT_NE(Stat2.Body.find("epoch=1"), std::string::npos) << Stat2.Body;
  EXPECT_NE(Stat2.Body.find("open=-"), std::string::npos) << Stat2.Body;
}

TEST(ServiceTxn, RemovalCommitsAFullResolve) {
  TxnService T;
  std::string Args = existingAssignArgs();
  Args[Args.find(' ')] = '\t';
  ASSERT_EQ(T.ask("1\tbegin").Status, StatusOk);
  ASSERT_EQ(T.ask("2\tdelta\trm\tassign\t" + Args).Status, StatusOk);
  Response Rm = T.ask("3\tcommit");
  ASSERT_EQ(Rm.Status, StatusOk) << Rm.Body;
  EXPECT_EQ(Rm.Body, "committed full");
  // The full re-solve kept provenance: re-adding the edge continues.
  ASSERT_EQ(T.ask("4\tbegin").Status, StatusOk);
  ASSERT_EQ(T.ask("5\tdelta\tadd\tassign\t" + Args).Status, StatusOk);
  Response Add = T.ask("6\tcommit");
  ASSERT_EQ(Add.Status, StatusOk) << Add.Body;
  EXPECT_EQ(Add.Body, "committed incremental");
  EXPECT_EQ(T.S.epoch(), 2u);
}

TEST(ServiceTxn, AbortLeavesAnswersByteIdentical) {
  TxnService T;
  std::vector<std::string> Batch;
  for (std::size_t I = 0; I < 8 && I < baseDB().numVars(); ++I)
    Batch.push_back("pts\t" + baseDB().VarNames[I]);
  auto Render = [&] {
    std::string Out;
    int Id = 10;
    for (const std::string &Q : Batch)
      Out += renderResponse(
                 T.ask(std::to_string(Id++) + "\t" + Q)) +
             "\n";
    return Out;
  };
  std::string Before = Render();
  ASSERT_EQ(T.ask("1\tbegin").Status, StatusOk);
  std::string Args = freshAssignArgs();
  Args[Args.find(' ')] = '\t';
  ASSERT_EQ(T.ask("2\tdelta\tadd\tassign\t" + Args).Status, StatusOk);
  Response Abort = T.ask("3\tabort");
  EXPECT_EQ(Abort.Status, StatusOk);
  EXPECT_EQ(Abort.Body, "aborted");
  EXPECT_EQ(Abort.Epoch, 0u);
  EXPECT_EQ(Render(), Before);
}

TEST(ServiceTxn, GuardsRefuseBadSequences) {
  TxnService T;
  EXPECT_EQ(T.ask("1\tcommit").Status, StatusError);
  EXPECT_EQ(T.ask("2\tabort").Status, StatusError);
  EXPECT_EQ(T.ask("3\tdelta\tadd\tassign\ta\tb").Status, StatusError);
  ASSERT_EQ(T.ask("4\tbegin").Status, StatusOk);
  EXPECT_EQ(T.ask("5\tbegin").Status, StatusError); // One at a time.
  // A rejected op leaves the transaction open and the stage count flat.
  EXPECT_EQ(T.ask("6\tdelta\tadd\tassign\tno.such\tno.such").Status,
            StatusError);
  Response Stat = T.ask("7\ttxstat");
  EXPECT_NE(Stat.Body.find("staged_ops=0"), std::string::npos)
      << Stat.Body;
  EXPECT_EQ(T.ask("8\tabort").Status, StatusOk);
}

TEST(ServiceTxn, TransactionsRequireACheckpointDirectory) {
  ServiceOptions O;
  O.Preset = "antlr";
  O.ConfigName = "2-object+H";
  Service S(std::move(O));
  ASSERT_EQ(S.init(), "");
  Response R = S.answer(req("1\tbegin"));
  EXPECT_EQ(R.Status, StatusError);
  EXPECT_NE(R.Body.find("checkpoint-dir"), std::string::npos) << R.Body;
  // txstat stays answerable — it is a read, not a mutation.
  EXPECT_EQ(S.answer(req("2\ttxstat")).Status, StatusOk);
}

TEST(ServiceTxn, UnifyCommitSurvivesARestart) {
  // A unify cell's re-solve runs over unifyView(staged facts), so its
  // commit — and the restart that replays it — must certify against that
  // view, not against the staged facts themselves. The snapshot it
  // promotes is fingerprinted against that view too, so the restart
  // resumes from it instead of cold-solving.
  const std::string Dir = tempDir();
  auto Options = [&Dir] {
    ServiceOptions O;
    O.Preset = "antlr";
    O.ConfigName = "unify";
    O.CheckpointDir = Dir;
    return O;
  };
  std::string Args = freshAssignArgs();
  const std::string Query = "9\tpts\t" + Args.substr(Args.find(' ') + 1);
  Args[Args.find(' ')] = '\t';
  std::string Answer;
  {
    Service S(Options());
    ASSERT_EQ(S.init(), "");
    ASSERT_EQ(S.answer(req("1\tbegin")).Status, StatusOk);
    ASSERT_EQ(S.answer(req("2\tdelta\tadd\tassign\t" + Args)).Status,
              StatusOk);
    Response Commit = S.answer(req("3\tcommit"));
    ASSERT_EQ(Commit.Status, StatusOk) << Commit.Body;
    EXPECT_EQ(Commit.Epoch, 1u);
    Answer = renderResponse(S.answer(req(Query)));
  }
  {
    Service S(Options());
    ASSERT_EQ(S.init(), "");
    // The journal replayed, re-certified, and was kept; the snapshot the
    // commit promoted matched the replayed view, so nothing re-solved.
    EXPECT_EQ(S.epoch(), 1u);
    EXPECT_TRUE(S.warmStarted());
    EXPECT_EQ(renderResponse(S.answer(req(Query))), Answer);
  }
  removeTree(Dir);
}

TEST(ServiceTxn, SabotagedCertificationAbortsTheCommit) {
  TxnService T;
  ASSERT_EQ(T.ask("1\tbegin").Status, StatusOk);
  std::string Args = freshAssignArgs();
  Args[Args.find(' ')] = '\t';
  ASSERT_EQ(T.ask("2\tdelta\tadd\tassign\t" + Args).Status, StatusOk);
  ASSERT_EQ(::setenv("CTP_TXN_SABOTAGE", "certify", 1), 0);
  Response Commit = T.ask("3\tcommit");
  ASSERT_EQ(::unsetenv("CTP_TXN_SABOTAGE"), 0);
  EXPECT_EQ(Commit.Status, StatusTxnAborted) << Commit.Body;
  EXPECT_EQ(Commit.Epoch, 0u);
  EXPECT_EQ(T.S.epoch(), 0u);
  // The failed transaction is gone; a clean retry commits normally.
  ASSERT_EQ(T.ask("4\tbegin").Status, StatusOk);
  ASSERT_EQ(T.ask("5\tdelta\tadd\tassign\t" + Args).Status, StatusOk);
  Response Retry = T.ask("6\tcommit");
  EXPECT_EQ(Retry.Status, StatusOk) << Retry.Body;
  EXPECT_EQ(Retry.Epoch, 1u);
}
