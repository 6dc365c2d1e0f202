//===- perfbench/src/Build.cpp - The `build` workload ---------------------===//
///
/// \file
/// A seeded sequence of distinct pipelines arrives as `.lz` or `.kfp`
/// text at a small frame size. Each is parsed, linted, partitioned,
/// fused, gated, compiled cold to a plan and run to its first frame
/// ("cold build"), then taken through the same steps once more, where
/// the plan comes out of the cache ("rebuild"). Time goes to the
/// frontend, lint, min-cut partitioning, fusion, the analyzer gate,
/// bytecode compile, the optimizer and the JIT; pixels are a small share.
///
/// Rounds: every round builds the same Pipelines-long sequence, each
/// pipeline against a fresh plan cache, and a run stops at the first
/// round boundary past its measuring time.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generator.h"

#include "Load.h"

#include "sim/Executor.h"
#include "sim/Session.h"
#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace kf;

namespace perfbench {

namespace {

struct Sizes {
  int Width, Height, Pipelines;
};

/// Pipelines the gauge generates and evaluates, and its time on the
/// reference host (see Gauge).
constexpr int GaugePipelines = 16;
constexpr double BuildGaugeMs = 0.15;

Sizes sizesFor(const RunConfig &Config) {
  if (Config.Quick)
    return {32, 24, 8};
  return {32, 32, 256};
}

/// Loads \p G from its text. Its inputs are named in0, in1, ... after
/// the generator's input nodes; a .kfp program names its output v<node>.
Loaded load(const GenPipeline &G) {
  return loadPipeline(G.Name, G.Text, G.Lazy,
                      G.Lazy ? "" : "v" + std::to_string(G.Output));
}

/// Fills a session frame's external inputs from the pregenerated images,
/// one per generator input node.
void fill(std::vector<Image> &Frame, const Loaded &B,
          const std::vector<Image> &Inputs) {
  for (const auto &[Name, Id] : B.Inputs)
    Frame[Id] = Inputs[std::stoi(Name.substr(2))];
}

struct Outcome {
  double ColdMs = 0, RebuildMs = 0;
  bool RebuildOk = false;
  std::string Error; ///< Cold build failed.
  Image ColdOut, RebuildOut;
  Loaded L; ///< The cold build's program, kept for the AST check.
};

Outcome buildTwice(const GenPipeline &G, const std::vector<Image> &Inputs,
                   bool Replay, TracedRun *C) {
  ExecutionOptions Exec;
  Exec.Threads = 1;
  Outcome O;
  PlanCache Cache(4);

  auto Start = std::chrono::steady_clock::now();
  Loaded B = load(G);
  if (!B.Error.empty()) {
    O.Error = B.Error;
    return O;
  }
  PipelineSession Cold(B.Fused, Exec, &Cache);
  std::shared_ptr<const CompiledPlan> Plan =
      layer("sim.plan", [&] { return Cold.plan(); });
  std::vector<Image> Frame = layer("sim.fill", [&] {
    std::vector<Image> F = Cold.acquireFrame();
    fill(F, B, Inputs);
    return F;
  });
  layer("sim.first_frame", [&] { Cold.runFrame(Frame); });
  O.ColdMs = msSince(Start);
  O.ColdOut = Frame[B.Output];
  if (Replay)
    replayOptAndJit(B, *Plan);
  if (C)
    C->Counts.add(B.Fused, *Plan);

  Start = std::chrono::steady_clock::now();
  Loaded R = load(G);
  if (!R.Error.empty())
    return O;
  PipelineSession Warm(R.Fused, Exec, &Cache);
  layer("sim.plan_lookup", [&] { Warm.plan(); });
  std::vector<Image> Again = layer("sim.fill", [&] {
    std::vector<Image> F = Warm.acquireFrame();
    fill(F, R, Inputs);
    return F;
  });
  layer("sim.exec", [&] { Warm.runFrame(Again); });
  O.RebuildMs = msSince(Start);
  O.RebuildOut = Again[R.Output];
  // Both lookups (plan() and the one inside runFrame) must hit.
  O.RebuildOk = Warm.stats().PlanHits == 2 && Warm.stats().PlanMisses == 0;
  if (C) {
    PlanCacheStats S = Cache.stats();
    C->PlanHits += S.Hits;
    C->PlanMisses += S.Misses;
  }
  O.L = std::move(B);
  return O;
}

struct Sequence {
  std::vector<GenPipeline> Pipelines;
  std::vector<std::vector<Image>> Inputs;
};

Sequence makeSequence(const RunConfig &Config, const Sizes &S) {
  Sequence Seq;
  for (int I = 0; I != S.Pipelines; ++I) {
    Seq.Pipelines.push_back(
        generatePipeline(Config.Seed, I, S.Width, S.Height));
    std::vector<Image> In;
    for (int K = 0; K != Seq.Pipelines.back().NumInputs; ++K)
      In.push_back(seededImage(S.Width, S.Height, 1,
                               mixSeed(Config.Seed, 0xb0000 + I * 4 + K)));
    Seq.Inputs.push_back(std::move(In));
  }
  return Seq;
}

/// Output checks of one pipeline's first round: the generator's own
/// evaluator within tolerance, and the unfused AST interpreter on the
/// same input bit-exactly.
void verify(const GenPipeline &G, const std::vector<Image> &Inputs,
            const Outcome &O, RunResult &Result) {
  const bool WasCorrect = Result.Correct;
  Image Ref = evaluatePipeline(G, Inputs);
  if (!withinTolerance(O.ColdOut, Ref, ReferenceTolerance))
    Result.problem(G.Name + ": output differs from the generator's "
                            "evaluator (max |diff| " +
                   std::to_string(maxAbsDiff(O.ColdOut, Ref)) + ")");
  std::vector<Image> Pool = makeImagePool(*O.L.Prog);
  fill(Pool, O.L, Inputs);
  ExecutionOptions Exec;
  Exec.Threads = 1;
  runUnfused(*O.L.Prog, Pool, Exec);
  double Diff = maxAbsDiff(O.ColdOut, Pool[O.L.Output]);
  if (Diff != 0.0)
    Result.problem(G.Name + ": fused output differs from the unfused AST "
                            "interpreter (max |diff| " +
                   std::to_string(Diff) + ")");
  if (WasCorrect && !Result.Correct)
    std::fprintf(stderr, "perfbench: %s, as sent:\n%s\n", G.Name.c_str(),
                 G.Text.c_str());
}

} // namespace

RunResult runBuild(const RunConfig &Config) {
  RunResult Result;
  const Sizes S = sizesFor(Config);

  // Set-up: generate the sequence and its inputs, then take WarmUp
  // pipelines from outside the sequence through cold builds to their
  // first frames.
  const int SetupReps = Config.Quick || Config.Trace ? 1 : 9;
  const int WarmUp = Config.Quick ? 2 : 64;
  std::vector<double> SetupS;
  Sequence Seq;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    moveToQuietestCore();
    auto Start = std::chrono::steady_clock::now();
    Seq = makeSequence(Config, S);
    for (int W = 0; W != WarmUp; ++W) {
      GenPipeline Warm = generatePipeline(
          Config.Seed, S.Pipelines + Rep * WarmUp + W, S.Width, S.Height);
      std::vector<Image> WarmIn;
      for (int K = 0; K != Warm.NumInputs; ++K)
        WarmIn.push_back(seededImage(S.Width, S.Height, 1, 77 + K));
      buildTwice(Warm, WarmIn, false, nullptr);
    }
    SetupS.push_back(msSince(Start) / 1000.0);
  }

  const double BudgetMs = Config.Seconds * 1000.0;
  // Each pipeline's fastest cold build and rebuild over the run's rounds.
  std::vector<double> ColdMs(S.Pipelines, HUGE_VAL),
      RebuildMs(S.Pipelines, HUGE_VAL);
  std::vector<Outcome> FirstRound(S.Pipelines);
  TracedRun T; // Counts and cache stats come from round 0.
  int UntracedRounds = 0;
  // The gauge: the generator writing, and its evaluator computing, a
  // fixed set of pipelines -- allocation-heavy, branchy single-thread
  // work like a build -- once per round. Like the builds, each gauge
  // pipeline keeps its fastest time; the gauge is their median.
  std::vector<std::vector<Image>> GaugeIn;
  for (int K = 0; K != GaugePipelines; ++K)
    GaugeIn.push_back({seededImage(S.Width, S.Height, 1, 0x6a09e667 + K),
                       seededImage(S.Width, S.Height, 1, 0xbb67ae85 + K)});
  std::vector<double> GaugeMs(GaugePipelines, HUGE_VAL);
  Gauge G(BuildGaugeMs);

  // One round over the whole sequence. Returns false once the run has a
  // failed check, which ends it.
  auto round = [&](int Round, bool Replay) {
    const double Probe = moveToQuietestCore();
    if (Replay)
      T.ProbesMs.push_back(Probe);
    for (int I = 0; I != S.Pipelines; ++I) {
      const GenPipeline &G = Seq.Pipelines[I];
      Outcome O = buildTwice(G, Seq.Inputs[I], Replay,
                             Round == 0 ? &T : nullptr);
      Result.Attempted += 2;
      if (!O.Error.empty()) {
        // Deterministic in the seed: the same pipeline fails every round.
        Result.Failed += 2;
        std::fprintf(stderr, "perfbench: %s: %s\n", G.Name.c_str(),
                     O.Error.c_str());
        continue;
      }
      ColdMs[I] = std::min(ColdMs[I], O.ColdMs);
      RebuildMs[I] = std::min(RebuildMs[I], O.RebuildMs);
      if (!O.RebuildOk || maxAbsDiff(O.RebuildOut, O.ColdOut) != 0.0)
        ++Result.Failed;
      if (Round == 0)
        FirstRound[I] = std::move(O);
      else if (maxAbsDiff(O.ColdOut, FirstRound[I].ColdOut) != 0.0)
        Result.problem(G.Name + ": round " + std::to_string(Round) +
                       " output differs from round 0");
    }
    {
      LayerSpan Span("bench.gauge");
      for (int K = 0; K != GaugePipelines; ++K) {
        auto Start = std::chrono::steady_clock::now();
        evaluatePipeline(generatePipeline(0x5eed, K, S.Width, S.Height),
                         GaugeIn[K]);
        GaugeMs[K] = std::min(GaugeMs[K], msSince(Start));
      }
    }
    return Result.Correct;
  };

  if (Config.Trace) {
    // Untraced pass for half the time, then the same number of rounds
    // traced: the difference of their walls is the tracing overhead.
    auto Start = std::chrono::steady_clock::now();
    do {
      if (!round(UntracedRounds++, false))
        break;
    } while (msSince(Start) < BudgetMs / 2);
    T.UntracedWallMs = msSince(Start);
    startTracing();
    T.PassStartUs = traceNowUs();
    for (int R = 0; R != UntracedRounds && Result.Correct; ++R)
      round(UntracedRounds + R, true);
    T.PassEndUs = traceNowUs();
    TraceRecorder::global().setEnabled(false);
  } else {
    auto Start = std::chrono::steady_clock::now();
    int Round = 0;
    do {
      if (!round(Round++, false))
        break;
    } while (msSince(Start) < BudgetMs);
  }

  releaseCore();

  // Round 0's outputs are checked after all timing; later rounds were
  // compared against them bit-exactly as they ran.
  for (int I = 0; I != S.Pipelines; ++I)
    if (FirstRound[I].L.Prog)
      verify(Seq.Pipelines[I], Seq.Inputs[I], FirstRound[I], Result);

  if (!Config.Trace) {
    // Each pipeline's fastest cold build and rebuild; pipelines the gate
    // rejected (counted as failed) have no time.
    double Pixels = 0.0, TotalMs = 0.0;
    for (int I = 0; I != S.Pipelines; ++I)
      if (ColdMs[I] != HUGE_VAL && RebuildMs[I] != HUGE_VAL) {
        Pixels += 2.0 * S.Width * S.Height;
        TotalMs += ColdMs[I] + RebuildMs[I];
      }
    std::erase(ColdMs, HUGE_VAL);
    const double Mpix = Pixels / (TotalMs * 1e3);
    G.SamplesMs = GaugeMs;
    G.report(median(SetupS), median(ColdMs), Mpix);
    Result.metric("setup_s", median(SetupS) * G.factor(), "s");
    Result.metric("op_ms", median(ColdMs) * G.factor(), "ms");
    Result.metric("mpix_per_s", Mpix / G.factor(), "Mpix/s");
    return Result;
  }

  reportTraced(Config, T, Result);
  return Result;
}

} // namespace perfbench
