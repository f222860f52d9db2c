//===- tests/ctp-crashkid.cpp - Misbehaving child for supervisor tests ----===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// A stand-in for ctp-analyze that dies in exactly the way a test asks it
// to, so supervisor_test can exercise every branch of the triage taxonomy
// without waiting on a real solver. Behaviour is driven by environment
// variables (the supervisor owns argv):
//
//   CTP_CRASHKID_MODE     exit | signal | hang | spin | alloc | beat |
//                         failn
//   CTP_CRASHKID_ARG      integer argument (exit code, signal number,
//                         milliseconds, or failure count, per mode)
//   CTP_CRASHKID_ARGVLOG  append one space-joined argv line per
//                         invocation; its line count is the invocation
//                         counter the "failn" mode consults
//
// Modes:
//   exit    exit with code ARG
//   signal  raise(ARG)
//   hang    install the heartbeat, then never beat (watchdog-stall bait)
//   spin    busy-loop while beating (RLIMIT_CPU bait: dies by SIGXCPU)
//   alloc   allocate without bound while beating (RLIMIT_AS bait: dies
//           by bad_alloc -> terminate -> SIGABRT)
//   beat    beat for ARG ms, then exit 0
//   failn   exit 1 while fewer than ARG invocations have been logged,
//           then exit 0 (retry-ladder bait; requires CTP_CRASHKID_ARGVLOG)
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

using Clock = std::chrono::steady_clock;

namespace {

long countLines(const std::string &Path) {
  std::ifstream In(Path);
  long N = 0;
  std::string Line;
  while (std::getline(In, Line))
    ++N;
  return N;
}

void beatFor(long Ms) {
  auto Until = Clock::now() + std::chrono::milliseconds(Ms);
  while (Clock::now() < Until) {
    for (int I = 0; I < 256; ++I)
      ctp::heartbeat::onPoll();
    ::usleep(1000);
  }
}

} // namespace

int main(int argc, char **argv) {
  const char *ModeEnv = std::getenv("CTP_CRASHKID_MODE");
  std::string Mode = ModeEnv ? ModeEnv : "";
  const char *ArgEnv = std::getenv("CTP_CRASHKID_ARG");
  long Arg = ArgEnv ? std::atol(ArgEnv) : 0;
  const char *ArgvLog = std::getenv("CTP_CRASHKID_ARGVLOG");

  long Invocation = 0;
  if (ArgvLog && *ArgvLog) {
    Invocation = countLines(ArgvLog);
    std::ofstream Log(ArgvLog, std::ios::app);
    for (int I = 0; I < argc; ++I)
      Log << (I ? " " : "") << argv[I];
    Log << "\n";
  }

  ctp::heartbeat::installFromEnv();

  if (Mode == "exit")
    return static_cast<int>(Arg);
  if (Mode == "signal") {
    ::raise(static_cast<int>(Arg));
    return 1; // Non-fatal signal: report the oddity.
  }
  if (Mode == "hang") {
    // Alive but silent: precisely what the watchdog exists to catch.
    while (true)
      ::usleep(50000);
  }
  if (Mode == "spin") {
    volatile std::uint64_t Sink = 0;
    while (true) {
      for (std::uint64_t I = 0; I < 100000; ++I)
        Sink = Sink + I * I;
      ctp::heartbeat::onPoll();
    }
  }
  if (Mode == "alloc") {
    std::fprintf(stderr, "crashkid: allocating until the rlimit bites\n");
    std::vector<char *> Hoard;
    while (true) {
      // 16 MiB per step, touched so the pages are real.
      char *P = new char[16u << 20];
      std::memset(P, 0xab, 16u << 20);
      Hoard.push_back(P);
      ctp::heartbeat::onPoll();
    }
  }
  if (Mode == "beat") {
    beatFor(Arg > 0 ? Arg : 50);
    return 0;
  }
  if (Mode == "failn") {
    if (!ArgvLog || !*ArgvLog) {
      std::fprintf(stderr, "crashkid: failn requires CTP_CRASHKID_ARGVLOG\n");
      return 2;
    }
    if (Invocation < Arg) {
      std::fprintf(stderr, "crashkid: planned failure %ld/%ld\n",
                   Invocation + 1, Arg);
      return 1;
    }
    beatFor(10);
    return 0;
  }
  std::fprintf(stderr, "crashkid: unknown CTP_CRASHKID_MODE '%s'\n",
               Mode.c_str());
  return 2;
}
