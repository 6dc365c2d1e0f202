//===- perfbench/src/Serve.cpp - The `serve` workload ---------------------===//
///
/// \file
/// A closed-loop client keeps every tenant queue of one PipelineServer
/// full and drives the server itself: each round it submits one frame to
/// every tenant, which fills every queue, then serves as many frames in
/// the scheduler's stride order (PipelineServer::runPending, the inline
/// twin of the dispatcher threads). The tenants are the six registry
/// pipelines plus two lazy-Harris tenants recorded separately that share
/// one plan, all on small frames that stay near a core's L2. The
/// scheduler, the shared plan cache, the frame pools and the thread pool
/// (one thread: launches run inline) carry the load that `stream`
/// bypasses, and an executor change tuned for large frames that hurts
/// small ones shows here.
///
/// One thread in all. On a host whose cores are shared with other
/// machines' hyperthreads, a server spread over several cores measures
/// its neighbours; a single thread can follow the quietest core round by
/// round, as the `stream` thread does frame by frame.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "Load.h"
#include "Reference.h"

#include "pipelines/Pipelines.h"
#include "sim/Server.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

using namespace kf;

namespace perfbench {

namespace {

constexpr int BankFrames = 2;
constexpr size_t QueueCapacity = 2;

/// The serve gauge's time on the reference host (see Gauge).
constexpr double ServeGaugeMs = 5.0;

/// The registry Harris pipeline as a lazy builder script: the same ops,
/// recorded one per line (see examples/lazy/harris.lz).
std::string lazyHarrisScript(int W, int H) {
  return "input in " + std::to_string(W) + " " + std::to_string(H) +
         "\n"
         "mask sobelx 3 3  -0.125 0 0.125  -0.25 0 0.25  -0.125 0 0.125\n"
         "mask sobely 3 3  -0.125 -0.25 -0.125  0 0 0  0.125 0.25 0.125\n"
         "mask binom  3 3  0.0625 0.125 0.0625  0.125 0.25 0.125  0.0625 "
         "0.125 0.0625\n"
         "dx  = conv sobelx in\n"
         "dy  = conv sobely in\n"
         "sx  = mul dx dx\n"
         "sy  = mul dy dy\n"
         "sxy = mul dx dy\n"
         "gx  = conv binom sx\n"
         "gy  = conv binom sy\n"
         "gxy = conv binom sxy\n"
         "det  = mul gx gy\n"
         "gxy2 = mul gxy gxy\n"
         "m    = sub det gxy2\n"
         "tr   = add gx gy\n"
         "tr2  = mul tr tr\n"
         "ktr  = mul 0.04 tr2\n"
         "hc   = sub m ktr\n"
         "output hc\n";
}

/// One tenant's program, inputs and captured outputs. Never moved: the
/// server's session points at L.Fused.
struct Tenant {
  std::string Name;
  Loaded L;
  std::vector<ImageId> Inputs;
  std::vector<std::vector<Image>> Bank;
  PipelineServer::SessionId Id = 0;
  int Submitted = 0;
  /// Frame index whose outputs the consumer keeps as the last measured
  /// frame; set by the client before it submits that frame.
  std::atomic<int> LastIndex{-1};
  std::vector<Image> FirstFrame, LastFrame; ///< Whole frame pools.
  int LastIndexSeen = -1;
  size_t LatencySkip = 0; ///< Latency samples from before measuring.
};

struct State {
  std::vector<std::unique_ptr<Tenant>> Tenants;
  std::unique_ptr<PipelineServer> Server; ///< Destroyed before Tenants.
};

/// First frame index that is measured (frame 0 runs in set-up).
constexpr int FirstMeasured = 1;

void submit(Tenant &T, PipelineServer &Server) {
  Tenant *TP = &T;
  Server.submit(
      T.Id,
      [TP](int Index, std::vector<Image> &Frame) {
        LayerSpan Span("sim.fill@" + TP->Name);
        const std::vector<Image> &In = TP->Bank[Index % BankFrames];
        for (size_t I = 0; I != TP->Inputs.size(); ++I)
          Frame[TP->Inputs[I]] = In[I];
      },
      [TP](int Index, const std::vector<Image> &Frame) {
        // The captured frames are checked after the run; copying them
        // here is the only way to keep them (the pool recycles buffers).
        if (Index == FirstMeasured) {
          TP->FirstFrame = Frame;
        } else if (Index == TP->LastIndex.load(std::memory_order_relaxed)) {
          TP->LastFrame = Frame;
          TP->LastIndexSeen = Index;
        }
      });
  ++T.Submitted;
}

/// Loads every tenant from its text (.kfp from the serializer for the
/// registry pipelines, the .lz script for the lazy ones), opens it on a
/// new server and serves its first frame, which compiles its plan (the
/// two lazy tenants share one). Returns false, with a failed check in
/// \p Result, when a tenant does not load.
bool setUp(const RunConfig &Config, State &S, RunResult &Result) {
  const int W = Config.Quick ? 64 : 256, H = Config.Quick ? 48 : 256;
  static const std::pair<const char *, Program (*)(int, int)> Registry[] = {
      {"harris", makeHarris},   {"shitomasi", makeShiTomasi},
      {"sobel", makeSobel},     {"unsharp", makeUnsharp},
      {"enhance", makeEnhancement}, {"night", makeNight}};
  for (const auto &[Name, Build] : Registry) {
    auto T = std::make_unique<Tenant>();
    T->Name = Name;
    // Night is RGB: a smaller frame keeps its planes near the others'.
    bool Rgb = std::string(Name) == "night";
    T->L = loadPipeline(
        Name, pipelineText(Build(Rgb ? W / 2 : W, Rgb ? H * 5 / 16 : H)),
        false);
    S.Tenants.push_back(std::move(T));
  }
  for (const char *Name : {"lazy_harris_a", "lazy_harris_b"}) {
    auto T = std::make_unique<Tenant>();
    T->Name = Name;
    T->L = loadPipeline(Name, lazyHarrisScript(W, H), true);
    S.Tenants.push_back(std::move(T));
  }
  for (auto &T : S.Tenants) {
    if (!T->L.Error.empty()) {
      Result.problem(T->Name + " does not load: " + T->L.Error);
      return false;
    }
    for (const auto &Input : T->L.Inputs)
      T->Inputs.push_back(Input.second);
  }
  int Index = 0;
  for (auto &T : S.Tenants) {
    for (int F = 0; F != BankFrames; ++F) {
      std::vector<Image> In;
      for (size_t I = 0; I != T->Inputs.size(); ++I) {
        const ImageInfo &Info = T->L.Prog->image(T->Inputs[I]);
        In.push_back(seededImage(
            Info.Width, Info.Height, Info.Channels,
            mixSeed(Config.Seed, 0x5e000 + Index * 64 + F * 8 + I)));
      }
      T->Bank.push_back(std::move(In));
    }
    ++Index;
  }

  ServerOptions Options;
  // No dispatcher threads, and ThreadPool(1) spawns no worker: the client
  // serves the frames with runPending().
  Options.Dispatchers = 0;
  Options.Threads = 1;
  S.Server = std::make_unique<PipelineServer>(Options);
  ExecutionOptions Exec;
  for (auto &T : S.Tenants) {
    TenantOptions TO;
    TO.Name = T->Name;
    TO.QueueCapacity = QueueCapacity;
    // A round never overfills a queue; a rejected frame is a failure.
    TO.Policy = BackpressurePolicy::Reject;
    T->Id = S.Server->open(T->L.Fused, Exec, TO);
  }
  for (auto &T : S.Tenants) {
    layer("sim.first_frame", [&] {
      submit(*T, *S.Server);
      S.Server->runPending();
    });
    T->LatencySkip = S.Server->tenantStats(T->Id).LatenciesMs.size();
  }
  // One frame waits in every queue when the first round starts, so each
  // round's submissions fill the queues.
  for (auto &T : S.Tenants)
    submit(*T, *S.Server);
  return true;
}

} // namespace

RunResult runServe(const RunConfig &Config) {
  RunResult Result;
  // A traced run sets up once, traced, for the build layers' spans.
  const int SetupReps = Config.Quick || Config.Trace ? 1 : 9;
  std::vector<double> SetupS;
  State S;
  TracedRun T;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    S.Server.reset();
    S.Tenants.clear();
    moveToQuietestCore();
    if (Config.Trace)
      startTracing();
    auto Start = std::chrono::steady_clock::now();
    if (!setUp(Config, S, Result))
      return Result;
    SetupS.push_back(msSince(Start) / 1000.0);
  }
  PipelineServer &Server = *S.Server;
  if (Config.Trace) {
    // The server compiles each plan inside the first frame, where no
    // layer span reaches; compile each tenant's plan once more in a
    // one-thread session of its own for the plan-compile time and the
    // plan's counts.
    ExecutionOptions Exec;
    Exec.Threads = 1;
    for (auto &Tn : S.Tenants) {
      PipelineSession Own(Tn->L.Fused, Exec);
      auto Plan = layer("sim.plan", [&] { return Own.plan(); });
      replayOptAndJit(Tn->L, *Plan);
      T.Counts.add(Tn->L.Fused, *Plan);
    }
    TraceRecorder::global().setEnabled(false);
  }

  // One round: a frame into every queue, as many frames served; the last
  // round also serves what is left. The gauge, the hand-written Sobel
  // loops over a fixed 256^2 plane (the tenants' frame size), runs after
  // every round.
  const double BudgetMs = Config.Seconds * 1000.0;
  const int GaugeSide = Config.Quick ? 64 : 256;
  const Image GaugeIn = seededImage(GaugeSide, GaugeSide, 1, 0x6a09e667);
  Gauge G(ServeGaugeMs);
  int Rounds = 0;
  double WallMs = 0.0;
  std::vector<double> LatencyMs;
  std::vector<size_t> Seen(S.Tenants.size());
  for (size_t I = 0; I != S.Tenants.size(); ++I)
    Seen[I] = S.Tenants[I]->LatencySkip;
  auto round = [&](bool Last) {
    T.ProbesMs.push_back(moveToQuietestCore());
    auto Start = std::chrono::steady_clock::now();
    for (auto &Tn : S.Tenants) {
      if (Last)
        Tn->LastIndex.store(Tn->Submitted, std::memory_order_relaxed);
      layer("server.submit", [&] { submit(*Tn, Server); });
    }
    layer("server.run", [&] {
      Server.runPending(Last ? SIZE_MAX : S.Tenants.size());
    });
    WallMs += msSince(Start);
    G.sample([&] { referenceSobel(GaugeIn); });
    ++Rounds;
  };

  if (Config.Trace) {
    // Untraced pass for half the time, then the same number of rounds
    // traced: the difference of their walls is the tracing overhead.
    auto Start = std::chrono::steady_clock::now();
    do
      round(false);
    while (msSince(Start) < BudgetMs / 2);
    T.UntracedWallMs = msSince(Start);
    const int Untraced = Rounds;
    T.ProbesMs.clear();
    startTracing(false);
    T.PassStartUs = traceNowUs();
    for (int R = 0; R != Untraced; ++R)
      round(R + 1 == Untraced);
    T.PassEndUs = traceNowUs();
  } else {
    auto Start = std::chrono::steady_clock::now();
    while (msSince(Start) < BudgetMs)
      round(false);
    round(true);
  }
  TraceRecorder::global().setEnabled(false);
  Result.Attempted = static_cast<uint64_t>(Rounds) * S.Tenants.size();
  releaseCore();
  for (size_t I = 0; I != S.Tenants.size(); ++I) {
    TenantStats TS = Server.tenantStats(S.Tenants[I]->Id);
    LatencyMs.insert(LatencyMs.end(), TS.LatenciesMs.begin() + Seen[I],
                     TS.LatenciesMs.end());
  }

  double Pixels = 0.0;
  for (auto &Tn : S.Tenants) {
    TenantStats TS = Server.tenantStats(Tn->Id);
    Result.Failed += TS.Rejected;
    const ImageInfo &Out = Tn->L.Prog->image(Tn->L.Output);
    Pixels += static_cast<double>(Out.Width) * Out.Height *
              static_cast<double>(TS.Completed - Tn->LatencySkip);
    for (const auto &[Index, Got] :
         {std::pair<int, const std::vector<Image> *>{FirstMeasured,
                                                     &Tn->FirstFrame},
          {Tn->LastIndexSeen, &Tn->LastFrame}})
      checkFrame(*Tn->L.Prog, Tn->Name,
                 Tn->Name + " frame " + std::to_string(Index), Tn->Inputs,
                 Tn->Bank[std::max(Index, 0) % BankFrames], *Got,
                 Tn->L.Output, 1, Result);
  }

  if (!Config.Trace) {
    const double Mpix = Pixels / (WallMs * 1e3);
    G.report(median(SetupS), median(LatencyMs), Mpix);
    Result.metric("setup_s", median(SetupS) * G.factor(), "s");
    Result.metric("op_ms", median(LatencyMs) * G.factor(), "ms");
    Result.metric("mpix_per_s", Mpix / G.factor(), "Mpix/s");
    return Result;
  }

  // The server's own per-frame split: exec_ms is fill + run + consume.
  for (const TraceSpanRecord &Span : TraceRecorder::global().spans())
    if (Span.Name == "server.frame")
      for (const auto &[Key, Value] : Span.Args)
        if (Key == "exec_ms")
          T.ExecMs.push_back(Value);
  PlanCacheStats Cache = Server.cacheStats();
  T.PlanHits = Cache.Hits;
  T.PlanMisses = Cache.Misses;
  reportTraced(Config, T, Result);
  return Result;
}

} // namespace perfbench
