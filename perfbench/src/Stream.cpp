//===- perfbench/src/Stream.cpp - The `stream` workload -------------------===//
///
/// \file
/// One client streams frames of each of the six registry pipelines
/// through a warm PipelineSession at one worker thread with default
/// ExecutionOptions. Frames are far larger than a core's L2 (2 MB on the
/// reference host), so nearly all the time goes to the executor, VM, JIT
/// and optimizer interior and halo code that fusion decisions and engine
/// work change; the build layers do almost nothing here.
///
/// Set-up loads every pipeline from the .kfp text the serializer writes
/// for it, along the same path as the `build` workload. A round runs
/// PerRound frames of every pipeline; a run stops at the first round
/// boundary past its measuring time. Each frame's inputs are copied
/// from a bank generated from the seed in set-up ("fill"), so no random
/// generation is timed as program work.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Load.h"

#include "pipelines/Pipelines.h"
#include "sim/Session.h"
#include "support/Trace.h"

#include <cmath>
#include <memory>

using namespace kf;

namespace perfbench {

namespace {

/// Input frames per pipeline; frame i reads bank entry i % BankFrames.
constexpr int BankFrames = 2;

/// The stream gauge's time on the reference host (see Gauge).
constexpr double StreamGaugeMs = 2.0;

struct AppSpec {
  const char *Name;
  Program (*Build)(int, int);
  int Width, Height;
  int PerRound; ///< Frames per round, so that each pipeline gets a
                ///< similar share of the run's time.
};

std::vector<AppSpec> appSpecs(bool Quick) {
  if (Quick)
    return {{"harris", makeHarris, 96, 64, 1},
            {"shitomasi", makeShiTomasi, 96, 64, 1},
            {"sobel", makeSobel, 96, 64, 1},
            {"unsharp", makeUnsharp, 96, 64, 1},
            {"enhance", makeEnhancement, 96, 64, 1},
            {"night", makeNight, 48, 32, 1}};
  // A 1024^2 gray plane is 4 MiB and every frame holds three or more
  // planes, so its working set is several times a core's L2. Night is
  // compute-bound (a-trous recompute, ~20x the per-pixel cost of the
  // others); its frame is sized to take about as long as a Harris frame.
  return {{"harris", makeHarris, 1024, 1024, 1},
          {"shitomasi", makeShiTomasi, 1024, 1024, 1},
          {"sobel", makeSobel, 1024, 1024, 3},
          {"unsharp", makeUnsharp, 1024, 1024, 5},
          {"enhance", makeEnhancement, 1024, 1024, 2},
          {"night", makeNight, 320, 200, 1}};
}

/// One pipeline, loaded from text, compiled and warm. Never moved: the
/// session points at L.Fused, and L.Fused at L.Prog.
struct App {
  std::string Name;
  int PerRound = 1;
  int Frames = 0; ///< Measured frames so far.
  Loaded L;
  std::vector<ImageId> Inputs;
  std::vector<std::vector<Image>> Bank; ///< [frame][input]
  std::unique_ptr<PipelineSession> Session;
  std::shared_ptr<const CompiledPlan> Plan;
  std::vector<Image> Frame;
  /// Fill + exec, wall-clock, and the probe time of the frame's core.
  std::vector<double> FrameMs, ProbeMs;
  std::vector<Image> FirstFrame; ///< Pool of the first measured frame.
};

struct State {
  std::unique_ptr<PlanCache> Cache;
  std::vector<std::unique_ptr<App>> Apps;
};

/// Out = 3x3 box sum of In over the interior: the stream gauge's task.
void boxStencil(const Image &In, Image &Out) {
  const int W = In.width(), H = In.height();
  const float *I = In.data().data();
  float *O = Out.data().data();
  for (int Y = 1; Y + 1 < H; ++Y)
    for (int X = 1; X + 1 < W; ++X) {
      const float *R = I + static_cast<size_t>(Y) * W + X;
      O[static_cast<size_t>(Y) * W + X] = R[-W - 1] + R[-W] + R[-W + 1] +
                                          R[-1] + R[0] + R[1] + R[W - 1] +
                                          R[W] + R[W + 1];
    }
}

void fillFrame(App &A, int FrameIndex) {
  const std::vector<Image> &In = A.Bank[FrameIndex % BankFrames];
  for (size_t I = 0; I != A.Inputs.size(); ++I)
    A.Frame[A.Inputs[I]].data() = In[I].data();
}

/// Input generation, loading every pipeline from its .kfp text (parse,
/// lint, partition, fuse, gate), cold plan compile with the JIT, and the
/// first frame. Returns false, with a failed check in \p Result, when a
/// registry pipeline does not load.
bool setUp(const RunConfig &Config, State &S, RunResult &Result) {
  S.Cache = std::make_unique<PlanCache>(16);
  ExecutionOptions Exec;
  Exec.Threads = 1;
  int Index = 0;
  for (const AppSpec &Spec : appSpecs(Config.Quick)) {
    auto A = std::make_unique<App>();
    A->Name = Spec.Name;
    A->PerRound = Spec.PerRound;
    A->L = loadPipeline(Spec.Name,
                        pipelineText(Spec.Build(Spec.Width, Spec.Height)),
                        false);
    if (!A->L.Error.empty()) {
      Result.problem(A->Name + " does not load: " + A->L.Error);
      return false;
    }
    for (const auto &Input : A->L.Inputs)
      A->Inputs.push_back(Input.second);
    for (int F = 0; F != BankFrames; ++F) {
      std::vector<Image> In;
      for (size_t I = 0; I != A->Inputs.size(); ++I) {
        const ImageInfo &Info = A->L.Prog->image(A->Inputs[I]);
        In.push_back(seededImage(
            Info.Width, Info.Height, Info.Channels,
            mixSeed(Config.Seed, 0x57000 + Index * 64 + F * 8 + I)));
      }
      A->Bank.push_back(std::move(In));
    }
    A->Session =
        std::make_unique<PipelineSession>(A->L.Fused, Exec, S.Cache.get());
    A->Plan = layer("sim.plan", [&] { return A->Session->plan(); });
    A->Frame = A->Session->acquireFrame();
    for (size_t I = 0; I != A->Inputs.size(); ++I)
      A->Frame[A->Inputs[I]] = A->Bank[0][I];
    layer("sim.first_frame", [&] { A->Session->runFrame(A->Frame); });
    S.Apps.push_back(std::move(A));
    ++Index;
  }
  return true;
}

} // namespace

RunResult runStream(const RunConfig &Config) {
  RunResult Result;
  // A traced run sets up once, traced, for the build layers' spans.
  const int SetupReps = Config.Quick || Config.Trace ? 1 : 3;
  std::vector<double> SetupS;
  State S;
  TracedRun T;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    S.Apps.clear(); // release the previous repetition's frames first
    S.Cache.reset();
    moveToQuietestCore();
    if (Config.Trace)
      startTracing();
    auto Start = std::chrono::steady_clock::now();
    if (!setUp(Config, S, Result))
      return Result;
    SetupS.push_back(msSince(Start) / 1000.0);
  }
  if (Config.Trace) {
    for (auto &A : S.Apps) {
      replayOptAndJit(A->L, *A->Plan);
      T.Counts.add(A->L.Fused, *A->Plan);
    }
    TraceRecorder::global().setEnabled(false);
  }

  const double BudgetMs = Config.Seconds * 1000.0;
  // The gauge: a 3x3 box stencil between two fixed planes as large as
  // the frames', a streaming stencil like theirs, before every frame.
  const int GaugeSide = Config.Quick ? 128 : 1024;
  const Image GaugeIn = seededImage(GaugeSide, GaugeSide, 1, 0x6a09e667);
  Image GaugeOut(GaugeSide, GaugeSide);
  Gauge G(StreamGaugeMs);
  int Rounds = 0;
  auto round = [&] {
    for (auto &A : S.Apps)
      for (int K = 0; K != A->PerRound; ++K) {
        const double Probe = moveToQuietestCore();
        G.sample([&] { boxStencil(GaugeIn, GaugeOut); });
        auto Start = std::chrono::steady_clock::now();
        layer("sim.fill@" + A->Name, [&] { fillFrame(*A, A->Frames); });
        layer("sim.exec@" + A->Name,
              [&] { A->Session->runFrame(A->Frame); });
        A->FrameMs.push_back(msSince(Start));
        A->ProbeMs.push_back(Probe);
        if (A->Frames++ == 0)
          A->FirstFrame = A->Frame;
      }
    ++Rounds;
  };

  if (Config.Trace) {
    // Untraced pass for half the time, then the same number of rounds
    // traced: the difference of their walls is the tracing overhead.
    auto Start = std::chrono::steady_clock::now();
    do
      round();
    while (msSince(Start) < BudgetMs / 2);
    T.UntracedWallMs = msSince(Start);
    const int Untraced = Rounds;
    for (auto &A : S.Apps)
      A->ProbeMs.clear();
    startTracing(false);
    T.PassStartUs = traceNowUs();
    for (int R = 0; R != Untraced; ++R)
      round();
    T.PassEndUs = traceNowUs();
  } else {
    auto Start = std::chrono::steady_clock::now();
    do
      round();
    while (msSince(Start) < BudgetMs);
  }
  TraceRecorder::global().setEnabled(false);
  volatile float GaugeSink = GaugeOut.data()[GaugeSide + 1];
  (void)GaugeSink;
  for (auto &A : S.Apps)
    Result.Attempted += A->Frames;

  releaseCore();

  // Output checks, after all timing: the first and the last measured
  // frame of every pipeline (the session's frame still holds the last).
  for (auto &A : S.Apps) {
    const int Threads = static_cast<int>(availableCores());
    const int Last = A->Frames - 1;
    checkFrame(*A->L.Prog, A->Name, A->Name + " frame 0", A->Inputs,
               A->Bank[0], A->FirstFrame, A->L.Output, Threads, Result);
    checkFrame(*A->L.Prog, A->Name,
               A->Name + " frame " + std::to_string(Last), A->Inputs,
               A->Bank[Last % BankFrames], A->Frame, A->L.Output, Threads,
               Result);
  }

  if (!Config.Trace) {
    // op_ms: geometric mean over pipelines of the median frame time, so
    // each pipeline weighs the same whatever its frame costs. mpix_per_s:
    // the output pixels of a round over the round's time in median frames.
    double LogSum = 0.0, Pixels = 0.0, TotalMs = 0.0;
    for (auto &A : S.Apps) {
      const double FrameMs = median(A->FrameMs);
      LogSum += std::log(FrameMs);
      const ImageInfo &Out = A->L.Prog->image(A->L.Output);
      Pixels += static_cast<double>(Out.Width) * Out.Height * A->PerRound;
      TotalMs += FrameMs * A->PerRound;
    }
    const double OpMs = std::exp(LogSum / S.Apps.size());
    const double Mpix = Pixels / (TotalMs * 1e3);
    G.report(median(SetupS), OpMs, Mpix);
    Result.metric("setup_s", median(SetupS) * G.factor(), "s");
    Result.metric("op_ms", OpMs * G.factor(), "ms");
    Result.metric("mpix_per_s", Mpix / G.factor(), "Mpix/s");
    return Result;
  }

  for (auto &A : S.Apps)
    T.ProbesMs.insert(T.ProbesMs.end(), A->ProbeMs.begin(), A->ProbeMs.end());
  PlanCacheStats Cache = S.Cache->stats();
  T.PlanHits = Cache.Hits;
  T.PlanMisses = Cache.Misses;
  reportTraced(Config, T, Result);
  return Result;
}

} // namespace perfbench
