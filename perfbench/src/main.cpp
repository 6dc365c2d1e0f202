//===- perfbench/src/main.cpp - End-to-end benchmark entry point ----------===//
///
/// \file
/// kf_perfbench --workload stream|build|serve --seed N --seconds S
///              --trace 0|1 [--quick] [--trace-out FILE]
///
/// Runs one workload for S seconds on inputs made from seed N, checks the
/// outputs against computations made apart from the fused path, and
/// prints the host block, then one JSON line: the end-to-end metrics
/// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
/// Exits 1 when any output check fails, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace perfbench;

static int usage(const std::string &Why) {
  std::cerr << "kf_perfbench: " << Why
            << "\nusage: kf_perfbench --workload stream|build|serve --seed N"
               " --seconds S --trace 0|1 [--quick] [--trace-out FILE]\n";
  return 2;
}

static bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno != 0 || End == Text || *End != '\0' || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

int main(int Argc, char **Argv) {
  // The library reads these on first use; an inherited value would change
  // which engine, tiling, optimizer setting or thread count is measured.
  for (const char *Var : {"KF_VM", "KF_TILING", "KF_TILE", "KF_OPT",
                          "KF_THREADS"})
    unsetenv(Var);

  RunConfig Config;
  bool HaveWorkload = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--quick") {
      Config.Quick = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage("missing value for " + Arg);
    const char *Value = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      Config.Workload = Value;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Value, N))
        return usage("bad --seed");
      Config.Seed = N;
    } else if (Arg == "--seconds") {
      if (!parseUnsigned(Value, N) || N < 1 || N > 3600)
        return usage("bad --seconds");
      Config.Seconds = static_cast<double>(N);
    } else if (Arg == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return usage("--trace takes 0 or 1");
      Config.Trace = Value[0] == '1';
      HaveTrace = true;
    } else if (Arg == "--trace-out") {
      Config.TraceOut = Value;
    } else {
      return usage("unknown option " + Arg);
    }
  }
  if (!HaveWorkload || !HaveTrace)
    return usage("--workload and --trace are required");

  printHostBlock();
  std::fflush(stdout);

  RunResult Result;
  if (Config.Workload == "stream")
    Result = runStream(Config);
  else if (Config.Workload == "build")
    Result = runBuild(Config);
  else if (Config.Workload == "serve")
    Result = runServe(Config);
  else
    return usage("unknown workload '" + Config.Workload + "'");

  std::printf("%s\n", Result.json().c_str());
  std::fflush(stdout);
  return Result.Correct ? 0 : 1;
}
