//===- serve/Delta.cpp - Fact-delta language implementation ---------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "serve/Delta.h"

#include <cstdlib>

using namespace ctp;
using namespace ctp::serve;
using facts::FactDB;
using facts::Id;

namespace {

std::vector<std::string> tokenize(const std::string &Line, std::string &Err) {
  std::vector<std::string> Toks;
  std::size_t I = 0;
  while (I < Line.size()) {
    std::size_t J = Line.find(' ', I);
    if (J == std::string::npos)
      J = Line.size();
    if (J == I) {
      Err = "empty token (doubled or leading space)";
      return {};
    }
    Toks.push_back(Line.substr(I, J - I));
    I = J + 1;
  }
  if (!Line.empty() && Line.back() == ' ')
    Err = "trailing space";
  if (Toks.empty() && Err.empty())
    Err = "empty op";
  return Toks;
}

Id findName(const std::vector<std::string> &Names, const std::string &Name) {
  for (std::size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return static_cast<Id>(I);
  return facts::InvalidId;
}

std::string resolve(const std::vector<std::string> &Names,
                    const std::string &Name, const char *Kind, Id &Out) {
  Out = findName(Names, Name);
  if (Out == facts::InvalidId)
    return std::string("unknown ") + Kind + " '" + Name + "'";
  return {};
}

std::string parseOrdinal(const std::string &Tok, Id &Out) {
  if (Tok.empty())
    return "empty ordinal";
  char *End = nullptr;
  unsigned long long V = std::strtoull(Tok.c_str(), &End, 10);
  if (*End != '\0' || Tok[0] < '0' || Tok[0] > '9')
    return "ordinal '" + Tok + "' is not a number";
  if (V > 0xFFFFFFFFull)
    return "ordinal '" + Tok + "' is out of range";
  Out = static_cast<Id>(V);
  return {};
}

template <typename T, typename Eq>
std::string addRow(std::vector<T> &Rows, const T &Row, Eq Same,
                   const char *Pred) {
  for (const T &R : Rows)
    if (Same(R, Row))
      return std::string("duplicate ") + Pred + " row";
  Rows.push_back(Row);
  return {};
}

template <typename T, typename Eq>
std::string rmRow(std::vector<T> &Rows, const T &Row, Eq Same,
                  const char *Pred) {
  for (auto It = Rows.begin(); It != Rows.end(); ++It)
    if (Same(*It, Row)) {
      Rows.erase(It); // In place: the remaining rows keep their order,
      return {};      // exactly like a hand edit of the TSV file.
    }
  return std::string("no such ") + Pred + " row";
}

/// Adds or removes \p Row and records the edit in \p D: a narrow
/// addition joins its seed list \p Seeds; a removal, or an addition of a
/// side-condition predicate (no \p Seeds), needs a cold re-solve.
template <typename T, typename Eq>
std::string editRow(bool Add, std::vector<T> &Rows, const T &Row, Eq Same,
                    const char *Pred, analysis::InputDelta &D,
                    std::vector<T> *Seeds = nullptr) {
  if (std::string E = Add ? addRow(Rows, Row, Same, Pred)
                          : rmRow(Rows, Row, Same, Pred);
      !E.empty())
    return E;
  if (Add && Seeds)
    Seeds->push_back(Row);
  else
    D.NeedsColdSolve = true;
  return {};
}

std::string applyEntity(const std::vector<std::string> &T, FactDB &DB) {
  if (T.size() < 4)
    return "usage: add entity <kind> <name> [<parent>]";
  const std::string &Kind = T[2], &Name = T[3];
  auto Fresh = [&Name](const std::vector<std::string> &Names,
                       const char *K) -> std::string {
    if (findName(Names, Name) != facts::InvalidId)
      return std::string(K) + " '" + Name + "' already exists";
    return {};
  };
  if (Kind == "var" || Kind == "heap" || Kind == "invoke") {
    if (T.size() != 5)
      return "usage: add entity " + Kind + " <name> <parent-method>";
    Id Parent;
    if (auto E = resolve(DB.MethodNames, T[4], "method", Parent); !E.empty())
      return E;
    if (Kind == "var") {
      if (auto E = Fresh(DB.VarNames, "variable"); !E.empty())
        return E;
      DB.VarNames.push_back(Name);
      DB.VarParent.push_back(Parent);
    } else if (Kind == "heap") {
      if (auto E = Fresh(DB.HeapNames, "heap site"); !E.empty())
        return E;
      DB.HeapNames.push_back(Name);
      DB.HeapParent.push_back(Parent);
    } else {
      if (auto E = Fresh(DB.InvokeNames, "invocation"); !E.empty())
        return E;
      DB.InvokeNames.push_back(Name);
      DB.InvokeParent.push_back(Parent);
    }
    return {};
  }
  if (Kind == "method") {
    if (T.size() != 5)
      return "usage: add entity method <name> <class-type>";
    Id Class;
    if (auto E = resolve(DB.TypeNames, T[4], "type", Class); !E.empty())
      return E;
    if (auto E = Fresh(DB.MethodNames, "method"); !E.empty())
      return E;
    DB.MethodNames.push_back(Name);
    DB.MethodClass.push_back(Class);
    return {};
  }
  if (T.size() != 4)
    return "usage: add entity " + Kind + " <name>";
  if (Kind == "field") {
    if (auto E = Fresh(DB.FieldNames, "field"); !E.empty())
      return E;
    DB.FieldNames.push_back(Name);
    return {};
  }
  if (Kind == "type") {
    if (auto E = Fresh(DB.TypeNames, "type"); !E.empty())
      return E;
    DB.TypeNames.push_back(Name);
    return {};
  }
  if (Kind == "sig") {
    if (auto E = Fresh(DB.SigNames, "signature"); !E.empty())
      return E;
    DB.SigNames.push_back(Name);
    return {};
  }
  if (Kind == "global") {
    if (auto E = Fresh(DB.GlobalNames, "global"); !E.empty())
      return E;
    DB.GlobalNames.push_back(Name);
    return {};
  }
  return "unknown entity kind '" + Kind + "' (var, heap, invoke, method, "
         "field, type, sig, global)";
}

} // namespace

std::string serve::applyDeltaOp(const std::string &Line, FactDB &DB,
                                analysis::InputDelta &D) {
  std::string Err;
  std::vector<std::string> T = tokenize(Line, Err);
  if (!Err.empty())
    return Err;
  const bool Add = T[0] == "add";
  if (!Add && T[0] != "rm")
    return "op must start with add or rm, got '" + T[0] + "'";
  if (T.size() < 2)
    return "missing predicate after " + T[0];
  const std::string &Pred = T[1];

  if (Pred == "entity") {
    if (!Add)
      return "rm entity is not supported: entity ids are append-only so "
             "every transaction keeps prior ids stable";
    return applyEntity(T, DB);
  }

  auto Arity = [&T, &Pred](std::size_t N) -> std::string {
    if (T.size() != N + 2)
      return Pred + " takes " + std::to_string(N) + " argument(s), got " +
             std::to_string(T.size() - 2);
    return {};
  };

  if (Pred == "entry") {
    if (auto E = Arity(1); !E.empty())
      return E;
    Id M;
    if (auto E = resolve(DB.MethodNames, T[2], "method", M); !E.empty())
      return E;
    auto Same = [](Id A, Id B) { return A == B; };
    std::string E = Add ? addRow(DB.EntryMethods, M, Same, "entry")
                        : rmRow(DB.EntryMethods, M, Same, "entry");
    // The solver seeds every entry method itself; only a removal cannot
    // be continued from.
    if (E.empty() && !Add)
      D.NeedsColdSolve = true;
    return E;
  }

  if (Pred == "assign") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::AssignFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.From); !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[3], "variable", F.To); !E.empty())
      return E;
    auto Same = [](const facts::AssignFact &A, const facts::AssignFact &B) {
      return A.From == B.From && A.To == B.To;
    };
    return editRow(Add, DB.Assigns, F, Same, "assign", D, &D.AddAssigns);
  }

  if (Pred == "assign_new") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::AssignNewFact F;
    if (auto E = resolve(DB.HeapNames, T[2], "heap site", F.Heap); !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[3], "variable", F.To); !E.empty())
      return E;
    if (auto E = resolve(DB.MethodNames, T[4], "method", F.InMethod);
        !E.empty())
      return E;
    auto Same = [](const facts::AssignNewFact &A,
                   const facts::AssignNewFact &B) {
      return A.Heap == B.Heap && A.To == B.To && A.InMethod == B.InMethod;
    };
    return editRow(Add, DB.AssignNews, F, Same, "assign_new", D,
                   &D.AddAssignNews);
  }

  if (Pred == "assign_return") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::AssignReturnFact F;
    if (auto E = resolve(DB.InvokeNames, T[2], "invocation", F.Invoke);
        !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[3], "variable", F.To); !E.empty())
      return E;
    auto Same = [](const facts::AssignReturnFact &A,
                   const facts::AssignReturnFact &B) {
      return A.Invoke == B.Invoke && A.To == B.To;
    };
    return editRow(Add, DB.AssignReturns, F, Same, "assign_return", D,
                   &D.AddAssignReturns);
  }

  if (Pred == "actual") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::ActualFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.Var); !E.empty())
      return E;
    if (auto E = resolve(DB.InvokeNames, T[3], "invocation", F.Invoke);
        !E.empty())
      return E;
    if (auto E = parseOrdinal(T[4], F.Ordinal); !E.empty())
      return E;
    auto Same = [](const facts::ActualFact &A, const facts::ActualFact &B) {
      return A.Var == B.Var && A.Invoke == B.Invoke && A.Ordinal == B.Ordinal;
    };
    return editRow(Add, DB.Actuals, F, Same, "actual", D, &D.AddActuals);
  }

  if (Pred == "formal") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::FormalFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.Var); !E.empty())
      return E;
    if (auto E = resolve(DB.MethodNames, T[3], "method", F.Method);
        !E.empty())
      return E;
    if (auto E = parseOrdinal(T[4], F.Ordinal); !E.empty())
      return E;
    auto Same = [](const facts::FormalFact &A, const facts::FormalFact &B) {
      return A.Var == B.Var && A.Method == B.Method && A.Ordinal == B.Ordinal;
    };
    return editRow(Add, DB.Formals, F, Same, "formal", D, &D.AddFormals);
  }

  if (Pred == "heap_type") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::HeapTypeFact F;
    if (auto E = resolve(DB.HeapNames, T[2], "heap site", F.Heap); !E.empty())
      return E;
    if (auto E = resolve(DB.TypeNames, T[3], "type", F.Type); !E.empty())
      return E;
    auto Same = [](const facts::HeapTypeFact &A, const facts::HeapTypeFact &B) {
      return A.Heap == B.Heap && A.Type == B.Type;
    };
    return editRow(Add, DB.HeapTypes, F, Same, "heap_type", D);
  }

  if (Pred == "implements") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::ImplementsFact F;
    if (auto E = resolve(DB.MethodNames, T[2], "method", F.Method);
        !E.empty())
      return E;
    if (auto E = resolve(DB.TypeNames, T[3], "type", F.Type); !E.empty())
      return E;
    if (auto E = resolve(DB.SigNames, T[4], "signature", F.Sig); !E.empty())
      return E;
    // Virtual dispatch to a method flows the receiver into its `this`
    // variable; a dispatch target without one would crash the solver.
    if (Add) {
      bool HasThis = false;
      for (const auto &TV : DB.ThisVars)
        if (TV.Method == F.Method)
          HasThis = true;
      if (!HasThis)
        return "method '" + T[2] + "' has no this_var row (add one before "
               "making it a dispatch target)";
    }
    auto Same = [](const facts::ImplementsFact &A,
                   const facts::ImplementsFact &B) {
      return A.Method == B.Method && A.Type == B.Type && A.Sig == B.Sig;
    };
    return editRow(Add, DB.Implements, F, Same, "implements", D);
  }

  if (Pred == "load") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::LoadFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.Base); !E.empty())
      return E;
    if (auto E = resolve(DB.FieldNames, T[3], "field", F.Field); !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[4], "variable", F.To); !E.empty())
      return E;
    auto Same = [](const facts::LoadFact &A, const facts::LoadFact &B) {
      return A.Base == B.Base && A.Field == B.Field && A.To == B.To;
    };
    return editRow(Add, DB.Loads, F, Same, "load", D, &D.AddLoads);
  }

  if (Pred == "return") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::ReturnFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.Var); !E.empty())
      return E;
    if (auto E = resolve(DB.MethodNames, T[3], "method", F.Method);
        !E.empty())
      return E;
    auto Same = [](const facts::ReturnFact &A, const facts::ReturnFact &B) {
      return A.Var == B.Var && A.Method == B.Method;
    };
    return editRow(Add, DB.Returns, F, Same, "return", D, &D.AddReturns);
  }

  if (Pred == "static_invoke") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::StaticInvokeFact F;
    if (auto E = resolve(DB.InvokeNames, T[2], "invocation", F.Invoke);
        !E.empty())
      return E;
    if (auto E = resolve(DB.MethodNames, T[3], "method", F.Target);
        !E.empty())
      return E;
    if (auto E = resolve(DB.MethodNames, T[4], "method", F.InMethod);
        !E.empty())
      return E;
    auto Same = [](const facts::StaticInvokeFact &A,
                   const facts::StaticInvokeFact &B) {
      return A.Invoke == B.Invoke && A.Target == B.Target &&
             A.InMethod == B.InMethod;
    };
    return editRow(Add, DB.StaticInvokes, F, Same, "static_invoke", D,
                   &D.AddStaticInvokes);
  }

  if (Pred == "store") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::StoreFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.From); !E.empty())
      return E;
    if (auto E = resolve(DB.FieldNames, T[3], "field", F.Field); !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[4], "variable", F.Base); !E.empty())
      return E;
    auto Same = [](const facts::StoreFact &A, const facts::StoreFact &B) {
      return A.From == B.From && A.Field == B.Field && A.Base == B.Base;
    };
    return editRow(Add, DB.Stores, F, Same, "store", D, &D.AddStores);
  }

  if (Pred == "this_var") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::ThisVarFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.Var); !E.empty())
      return E;
    if (auto E = resolve(DB.MethodNames, T[3], "method", F.Method);
        !E.empty())
      return E;
    auto Same = [](const facts::ThisVarFact &A, const facts::ThisVarFact &B) {
      return A.Var == B.Var && A.Method == B.Method;
    };
    // A dispatch target must keep its `this` variable (see implements).
    if (!Add)
      for (const auto &Im : DB.Implements)
        if (Im.Method == F.Method)
          return "method '" + T[3] + "' is a dispatch target (implements "
                 "row); remove those rows first";
    return editRow(Add, DB.ThisVars, F, Same, "this_var", D);
  }

  if (Pred == "virtual_invoke") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::VirtualInvokeFact F;
    if (auto E = resolve(DB.InvokeNames, T[2], "invocation", F.Invoke);
        !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[3], "variable", F.Receiver);
        !E.empty())
      return E;
    if (auto E = resolve(DB.SigNames, T[4], "signature", F.Sig); !E.empty())
      return E;
    auto Same = [](const facts::VirtualInvokeFact &A,
                   const facts::VirtualInvokeFact &B) {
      return A.Invoke == B.Invoke && A.Receiver == B.Receiver &&
             A.Sig == B.Sig;
    };
    return editRow(Add, DB.VirtualInvokes, F, Same, "virtual_invoke", D,
                   &D.AddVirtualInvokes);
  }

  if (Pred == "global_store") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::GlobalStoreFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.From); !E.empty())
      return E;
    if (auto E = resolve(DB.GlobalNames, T[3], "global", F.Global);
        !E.empty())
      return E;
    auto Same = [](const facts::GlobalStoreFact &A,
                   const facts::GlobalStoreFact &B) {
      return A.From == B.From && A.Global == B.Global;
    };
    return editRow(Add, DB.GlobalStores, F, Same, "global_store", D,
                   &D.AddGlobalStores);
  }

  if (Pred == "global_load") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::GlobalLoadFact F;
    if (auto E = resolve(DB.GlobalNames, T[2], "global", F.Global);
        !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[3], "variable", F.To); !E.empty())
      return E;
    if (auto E = resolve(DB.MethodNames, T[4], "method", F.InMethod);
        !E.empty())
      return E;
    auto Same = [](const facts::GlobalLoadFact &A,
                   const facts::GlobalLoadFact &B) {
      return A.Global == B.Global && A.To == B.To && A.InMethod == B.InMethod;
    };
    return editRow(Add, DB.GlobalLoads, F, Same, "global_load", D,
                   &D.AddGlobalLoads);
  }

  if (Pred == "throw") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::ThrowFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.Var); !E.empty())
      return E;
    if (auto E = resolve(DB.MethodNames, T[3], "method", F.Method);
        !E.empty())
      return E;
    auto Same = [](const facts::ThrowFact &A, const facts::ThrowFact &B) {
      return A.Var == B.Var && A.Method == B.Method;
    };
    return editRow(Add, DB.Throws, F, Same, "throw", D, &D.AddThrows);
  }

  if (Pred == "catch") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::CatchFact F;
    if (auto E = resolve(DB.InvokeNames, T[2], "invocation", F.Invoke);
        !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[3], "variable", F.To); !E.empty())
      return E;
    auto Same = [](const facts::CatchFact &A, const facts::CatchFact &B) {
      return A.Invoke == B.Invoke && A.To == B.To;
    };
    return editRow(Add, DB.Catches, F, Same, "catch", D, &D.AddCatches);
  }

  if (Pred == "cast") {
    if (auto E = Arity(3); !E.empty())
      return E;
    facts::CastFact F;
    if (auto E = resolve(DB.VarNames, T[2], "variable", F.From); !E.empty())
      return E;
    if (auto E = resolve(DB.VarNames, T[3], "variable", F.To); !E.empty())
      return E;
    if (auto E = resolve(DB.TypeNames, T[4], "type", F.Type); !E.empty())
      return E;
    auto Same = [](const facts::CastFact &A, const facts::CastFact &B) {
      return A.From == B.From && A.To == B.To && A.Type == B.Type;
    };
    return editRow(Add, DB.Casts, F, Same, "cast", D, &D.AddCasts);
  }

  if (Pred == "subtype") {
    if (auto E = Arity(2); !E.empty())
      return E;
    facts::SubtypeFact F;
    if (auto E = resolve(DB.TypeNames, T[2], "type", F.Sub); !E.empty())
      return E;
    if (auto E = resolve(DB.TypeNames, T[3], "type", F.Super); !E.empty())
      return E;
    auto Same = [](const facts::SubtypeFact &A, const facts::SubtypeFact &B) {
      return A.Sub == B.Sub && A.Super == B.Super;
    };
    return editRow(Add, DB.Subtypes, F, Same, "subtype", D);
  }

  if (Pred == "spawn") {
    if (auto E = Arity(1); !E.empty())
      return E;
    facts::SpawnFact F;
    if (auto E = resolve(DB.InvokeNames, T[2], "invocation", F.Invoke);
        !E.empty())
      return E;
    auto Same = [](const facts::SpawnFact &A, const facts::SpawnFact &B) {
      return A.Invoke == B.Invoke;
    };
    return Add ? addRow(DB.Spawns, F, Same, "spawn")
               : rmRow(DB.Spawns, F, Same, "spawn");
  }

  if (Pred == "taint_source" || Pred == "taint_sink") {
    if (auto E = Arity(2); !E.empty())
      return E;
    Id IsField;
    if (T[2] == "invoke")
      IsField = 0;
    else if (T[2] == "field")
      IsField = 1;
    else
      return Pred + " kind must be invoke or field, got '" + T[2] + "'";
    Id Entity;
    if (IsField == 0) {
      if (auto E = resolve(DB.InvokeNames, T[3], "invocation", Entity);
          !E.empty())
        return E;
    } else {
      if (auto E = resolve(DB.FieldNames, T[3], "field", Entity); !E.empty())
        return E;
    }
    if (Pred == "taint_source") {
      facts::TaintSourceFact F{IsField, Entity};
      auto Same = [](const facts::TaintSourceFact &A,
                     const facts::TaintSourceFact &B) {
        return A.IsField == B.IsField && A.Entity == B.Entity;
      };
      return Add ? addRow(DB.TaintSources, F, Same, "taint_source")
                 : rmRow(DB.TaintSources, F, Same, "taint_source");
    } else {
      facts::TaintSinkFact F{IsField, Entity};
      auto Same = [](const facts::TaintSinkFact &A,
                     const facts::TaintSinkFact &B) {
        return A.IsField == B.IsField && A.Entity == B.Entity;
      };
      return Add ? addRow(DB.TaintSinks, F, Same, "taint_sink")
                 : rmRow(DB.TaintSinks, F, Same, "taint_sink");
    }
  }

  if (Pred == "sanitizer") {
    if (auto E = Arity(1); !E.empty())
      return E;
    facts::SanitizerFact F;
    if (auto E = resolve(DB.InvokeNames, T[2], "invocation", F.Invoke);
        !E.empty())
      return E;
    auto Same = [](const facts::SanitizerFact &A,
                   const facts::SanitizerFact &B) {
      return A.Invoke == B.Invoke;
    };
    return Add ? addRow(DB.Sanitizers, F, Same, "sanitizer")
               : rmRow(DB.Sanitizers, F, Same, "sanitizer");
  }

  return "unknown predicate '" + Pred + "'";
}

std::string serve::applyDeltaOps(const std::vector<std::string> &Lines,
                                 FactDB &DB, analysis::InputDelta &D) {
  for (std::size_t I = 0; I < Lines.size(); ++I)
    if (std::string E = applyDeltaOp(Lines[I], DB, D); !E.empty())
      return "op " + std::to_string(I + 1) + ": " + E;
  return {};
}
