//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//

#include "Bench.h"
#include "Reference.h"

#include "sim/Executor.h"

#include "support/Random.h"
#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sched.h>
#include <sstream>
#include <thread>

namespace perfbench {

void RunResult::problem(const std::string &Message) {
  Correct = false;
  std::cerr << "perfbench: check failed: " << Message << "\n";
}

static std::string formatValue(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string RunResult::json() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, ValueUnit] : Metrics) {
    if (!First)
      OS << ", ";
    First = false;
    OS << "\"" << Name << "\": {\"value\": " << formatValue(ValueUnit.first)
       << ", \"unit\": \"" << ValueUnit.second << "\"}";
  }
  OS << "}}";
  return OS.str();
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

//===--------------------------------------------------------------------===//
// Layer spans
//===--------------------------------------------------------------------===//

static constexpr const char *LayerCategory = "perfbench";

LayerSpan::LayerSpan(std::string NameIn)
    : Name(std::move(NameIn)), Active(kf::TraceRecorder::enabled()) {
  if (Active)
    StartUs = kf::TraceRecorder::global().nowUs();
}

LayerSpan::~LayerSpan() {
  if (!Active)
    return;
  kf::TraceRecorder &TR = kf::TraceRecorder::global();
  TR.recordSpan(std::move(Name), LayerCategory, StartUs, TR.nowUs() - StartUs);
}

double traceNowUs() { return kf::TraceRecorder::global().nowUs(); }

void startTracing(bool Clear) {
  kf::TraceRecorder &TR = kf::TraceRecorder::global();
  if (Clear)
    TR.clear();
  TR.setEnabled(true);
}

LayerSummary summarizeLayers(double PassStartUs, double PassEndUs) {
  kf::TraceRecorder &TR = kf::TraceRecorder::global();
  const uint32_t Self = TR.threadId();
  LayerSummary S;
  S.WallMs = (PassEndUs - PassStartUs) / 1000.0;
  std::vector<std::pair<double, double>> Covered;
  for (const kf::TraceSpanRecord &Span : TR.spans()) {
    if (Span.Category != LayerCategory)
      continue;
    S.DurationsMs[Span.Name].push_back(Span.DurationUs / 1000.0);
    if (Span.ThreadId != Self)
      continue;
    double Lo = std::max(Span.StartUs, PassStartUs);
    double Hi = std::min(Span.StartUs + Span.DurationUs, PassEndUs);
    if (Hi > Lo)
      Covered.push_back({Lo, Hi});
  }
  // Union of the covered intervals on this thread.
  std::sort(Covered.begin(), Covered.end());
  double CoveredUs = 0.0, End = PassStartUs;
  for (const auto &[Lo, Hi] : Covered) {
    double From = std::max(Lo, End);
    if (Hi > From)
      CoveredUs += Hi - From;
    End = std::max(End, Hi);
  }
  S.UnattributedMs = S.WallMs - CoveredUs / 1000.0;
  return S;
}

static std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

bool writeTrace(const LayerSummary &Summary, const std::string &Path) {
  std::printf("%-34s %8s %12s %12s %7s\n", "layer", "count", "total_ms",
              "median_ms", "wall%");
  for (const auto &[Name, Ms] : Summary.DurationsMs) {
    double Total = 0.0;
    for (double V : Ms)
      Total += V;
    std::printf("%-34s %8zu %12.3f %12.4f %6.1f%%\n", Name.c_str(), Ms.size(),
                Total, median(Ms),
                Summary.WallMs > 0 ? 100.0 * Total / Summary.WallMs : 0.0);
  }
  std::printf("%-34s %8s %12.3f\n", "(traced wall)", "", Summary.WallMs);
  std::printf("%-34s %8s %12.3f %12s %6.1f%%\n", "(unattributed)", "",
              Summary.UnattributedMs, "",
              Summary.WallMs > 0
                  ? 100.0 * Summary.UnattributedMs / Summary.WallMs
                  : 0.0);
  if (Path.empty())
    return true;

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out.good())
    return false;
  char Buf[96];
  Out << "{\"traceEvents\": [\n";
  bool First = true;
  for (const kf::TraceSpanRecord &Span : kf::TraceRecorder::global().spans()) {
    Out << (First ? "" : ",\n");
    First = false;
    std::snprintf(Buf, sizeof(Buf), "\"ts\": %.3f, \"dur\": %.3f",
                  Span.StartUs, Span.DurationUs);
    Out << "  {\"name\": \"" << jsonEscape(Span.Name) << "\", \"cat\": \""
        << jsonEscape(Span.Category) << "\", \"ph\": \"X\", \"pid\": 0, "
        << "\"tid\": " << Span.ThreadId << ", " << Buf << "}";
  }
  Out << "\n], \"otherData\": {\"wall_ms\": " << formatValue(Summary.WallMs)
      << ", \"unattributed_ms\": " << formatValue(Summary.UnattributedMs)
      << ", \"layers\": {";
  First = true;
  for (const auto &[Name, Ms] : Summary.DurationsMs) {
    double Total = 0.0;
    for (double V : Ms)
      Total += V;
    Out << (First ? "" : ", ") << "\"" << jsonEscape(Name)
        << "\": {\"count\": " << Ms.size()
        << ", \"total_ms\": " << formatValue(Total)
        << ", \"median_ms\": " << formatValue(median(Ms)) << "}";
    First = false;
  }
  Out << "}}}\n";
  return Out.good();
}

/// The reported time of \p Layer: the median of its spans, or, when they
/// are split by pipeline ("<layer>@<pipeline>"), the geometric mean over
/// pipelines of each pipeline's median.
static double layerMs(const LayerSummary &L, const std::string &Layer) {
  double LogSum = 0.0;
  int Groups = 0;
  for (const auto &[Name, Ms] : L.DurationsMs)
    if (Name == Layer || Name.rfind(Layer + "@", 0) == 0) {
      LogSum += std::log(std::max(median(Ms), 1e-9));
      ++Groups;
    }
  return Groups ? std::exp(LogSum / Groups)
                : std::numeric_limits<double>::quiet_NaN();
}

void reportTraced(const RunConfig &Config, const TracedRun &T,
                  RunResult &Result) {
  kf::TraceRecorder::global().setEnabled(false);
  LayerSummary L = summarizeLayers(T.PassStartUs, T.PassEndUs);
  if (!writeTrace(L, Config.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 Config.TraceOut.c_str());
  static const char *const Layers[] = {
      "frontend.parse", "analysis.lint", "fusion.partition",
      "transform.fuse", "ir.bytecode",   "analysis.gate",
      "sim.plan",       "ir.opt",        "jit.compile",
      "sim.first_frame", "sim.fill"};
  for (const char *Layer : Layers)
    Result.metric(std::string(Layer) + "_ms", layerMs(L, Layer), "ms");
  Result.metric("sim.exec_ms",
                T.ExecMs.empty() ? layerMs(L, "sim.exec") : median(T.ExecMs),
                "ms");
  // The library's own "launch <kernel>" spans inside every frame.
  std::vector<double> LaunchMs;
  for (const kf::TraceSpanRecord &Span : kf::TraceRecorder::global().spans())
    if (Span.Category == "sim" && Span.Name.rfind("launch ", 0) == 0)
      LaunchMs.push_back(Span.DurationUs / 1000.0);
  Result.metric("sim.launch_ms", median(LaunchMs), "ms");

  const double CopyGbps = measureCopyGbps(Config.Quick);
  Result.metric("host.copy_gbps", CopyGbps, "GB/s");
  Result.metric("host.alu_gops", measureAluGops(Config.Quick), "Gop/s");
  Result.metric("host.probe_ms", median(T.ProbesMs), "ms");

  Result.metric("fusion.kernels", T.Counts.Kernels, "count");
  Result.metric("fusion.launches", T.Counts.Launches, "count");
  Result.metric("ir.insts", T.Counts.Insts, "count");
  Result.metric("ir.opt_removed", T.Counts.OptRemoved, "count");
  Result.metric("jit.refused", T.Counts.JitRefused, "count");
  Result.metric("sim.bytes_moved", T.Counts.BytesMoved, "bytes");
  Result.metric("sim.floor_ms", T.Counts.BytesMoved / (CopyGbps * 1e6), "ms");
  Result.metric("sim.plan_hits", T.PlanHits, "count");
  Result.metric("sim.plan_misses", T.PlanMisses, "count");
  Result.metric("trace.unattributed_ms", L.UnattributedMs, "ms");
  Result.metric("trace.overhead_ms", L.WallMs - T.UntracedWallMs, "ms");
}

void Gauge::report(double SetupS, double OpMs, double MpixPerS) const {
  std::fprintf(stderr,
               "perfbench: gauge median %.4f ms over %zu samples "
               "(reference %.4f ms, factor %.4f); raw setup_s %.6f "
               "op_ms %.6f mpix_per_s %.6f\n",
               median(SamplesMs), SamplesMs.size(), ReferenceMs, factor(),
               SetupS, OpMs, MpixPerS);
}

//===--------------------------------------------------------------------===//
// Host
//===--------------------------------------------------------------------===//

/// The process's CPU mask, saved before the first restriction.
static bool processMask(cpu_set_t &Set) {
  static cpu_set_t Saved;
  static const bool Ok = sched_getaffinity(0, sizeof(Saved), &Saved) == 0;
  Set = Saved;
  return Ok;
}

double probeMs() {
  static float X[1024];
  double Total = 0.0;
  // About 1 ms uncontended: long enough to average the sub-millisecond
  // bursts in which a busy sibling hyperthread takes the core.
  for (int Rep = 0; Rep != 8; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    for (int P = 0; P != 512; ++P)
      for (float &V : X)
        V = V * 0.999f + 1e-4f;
    Total += msSince(Start);
  }
  volatile float Sink = X[3];
  (void)Sink;
  return Total;
}

double moveToQuietestCore() {
  // Benchmark work, not a library layer: traced runs show it by name
  // instead of leaving it unattributed.
  LayerSpan Span("bench.pick_core");
  cpu_set_t All;
  if (!processMask(All))
    return 0.0;
  int Best = -1;
  double BestMs = HUGE_VAL;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &All))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    if (sched_setaffinity(0, sizeof(One), &One) != 0)
      continue;
    double Ms = probeMs();
    if (Ms < BestMs) {
      BestMs = Ms;
      Best = Cpu;
    }
  }
  cpu_set_t Pick;
  CPU_ZERO(&Pick);
  if (Best >= 0)
    CPU_SET(Best, &Pick);
  sched_setaffinity(0, sizeof(cpu_set_t), Best >= 0 ? &Pick : &All);
  return BestMs;
}

void releaseCore() {
  cpu_set_t All;
  if (processMask(All))
    sched_setaffinity(0, sizeof(All), &All);
}

unsigned availableCores() {
  cpu_set_t Set;
  if (processMask(Set))
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

static std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

void printHostBlock() {
  const char *Source = std::getenv("PERFBENCH_SOURCE_ID");
  std::printf("host.cores: %u\n", availableCores());
  std::printf("host.cpu: %s\n", cpuModel().c_str());
#if defined(__clang__)
  std::printf("host.compiler: clang %s\n", __clang_version__);
#elif defined(__GNUC__)
  std::printf("host.compiler: gcc %s\n", __VERSION__);
#else
  std::printf("host.compiler: %s\n", __VERSION__);
#endif
  std::printf("host.build_type: %s\n", KF_PERFBENCH_BUILD_TYPE);
  std::printf("host.source: %s\n", Source ? Source : "unknown");
}

double measureCopyGbps(bool Quick) {
  // 64 MiB per buffer: far beyond a core's L2 and this host's share of
  // the last-level cache, so the copy streams from memory.
  const size_t Floats = (Quick ? 4u : 16u) << 20;
  std::vector<float> Src(Floats, 1.0f), Dst(Floats, 0.0f);
  std::vector<double> Rates;
  for (int Rep = 0; Rep != (Quick ? 2 : 5); ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    std::memcpy(Dst.data(), Src.data(), Floats * sizeof(float));
    double Ms = msSince(Start);
    Src[Rep] = Dst[Floats - 1 - Rep]; // keep the copies observable
    Rates.push_back(2.0 * Floats * sizeof(float) / (Ms * 1e6));
  }
  return median(Rates);
}

double measureAluGops(bool Quick) {
  // 4 Ki floats (16 KiB) stay in L1; each pass is one multiply and one
  // add per element, which the compiler vectorizes.
  const size_t N = 4096;
  const int Passes = Quick ? 2000 : 20000;
  std::vector<float> X(N);
  for (size_t I = 0; I != N; ++I)
    X[I] = static_cast<float>(I) * 1e-4f;
  volatile float Scale = 0.999f, Bias = 1e-4f;
  const float A = Scale, B = Bias;
  std::vector<double> Rates;
  for (int Rep = 0; Rep != 3; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    for (int P = 0; P != Passes; ++P)
      for (size_t I = 0; I != N; ++I)
        X[I] = X[I] * A + B;
    double Ms = msSince(Start);
    Rates.push_back(2.0 * N * Passes / (Ms * 1e6));
  }
  volatile float Sink = X[N / 2];
  (void)Sink;
  return median(Rates);
}

//===--------------------------------------------------------------------===//
// Inputs and comparisons
//===--------------------------------------------------------------------===//

uint64_t mixSeed(uint64_t Seed, uint64_t Label) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Label * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

kf::Image seededImage(int Width, int Height, int Channels, uint64_t Seed) {
  kf::Rng Gen(Seed);
  kf::Image Img(Width, Height, Channels);
  for (float &V : Img.data())
    V = static_cast<float>(Gen.nextDouble());
  return Img;
}

double maxAbsDiff(const kf::Image &A, const kf::Image &B) {
  if (!A.sameShape(B) || A.empty())
    return std::numeric_limits<double>::infinity();
  double Max = 0.0;
  const std::vector<float> &DA = A.data(), &DB = B.data();
  for (size_t I = 0; I != DA.size(); ++I) {
    if (std::isnan(DA[I]) != std::isnan(DB[I]))
      return std::numeric_limits<double>::infinity();
    if (std::isnan(DA[I]))
      continue;
    Max = std::max(Max, std::fabs(static_cast<double>(DA[I]) - DB[I]));
  }
  return Max;
}

bool withinTolerance(const kf::Image &Got, const kf::Image &Ref, double Rel) {
  if (!Got.sameShape(Ref) || Got.empty())
    return false;
  const std::vector<float> &G = Got.data(), &R = Ref.data();
  for (size_t I = 0; I != G.size(); ++I) {
    double Limit = Rel * std::max(1.0, std::fabs(static_cast<double>(R[I])));
    if (!(std::fabs(static_cast<double>(G[I]) - R[I]) <= Limit))
      return false;
  }
  return true;
}

void checkFrame(const kf::Program &P, const std::string &App,
                const std::string &Where, const std::vector<kf::ImageId> &Ids,
                const std::vector<kf::Image> &Inputs,
                const std::vector<kf::Image> &Got, kf::ImageId Output,
                int Threads, RunResult &Result) {
  if (Got.size() != P.numImages()) {
    Result.problem(Where + ": frame was not captured");
    return;
  }
  std::vector<kf::Image> Pool = kf::makeImagePool(P);
  for (size_t I = 0; I != Ids.size(); ++I)
    Pool[Ids[I]] = Inputs[I];
  kf::ExecutionOptions Exec;
  Exec.Threads = Threads;
  kf::runUnfused(P, Pool, Exec);
  for (kf::ImageId Id = 0; Id != P.numImages(); ++Id) {
    if (Got[Id].empty() ||
        std::find(Ids.begin(), Ids.end(), Id) != Ids.end())
      continue;
    double Diff = maxAbsDiff(Got[Id], Pool[Id]);
    if (Diff != 0.0)
      Result.problem(Where + ": image " + P.image(Id).Name +
                     " differs from the unfused AST interpreter (max |diff| " +
                     std::to_string(Diff) + ")");
  }
  kf::Image Ref;
  if (App == "sobel")
    Ref = referenceSobel(Inputs[0]);
  else if (App == "unsharp")
    Ref = referenceUnsharp(Inputs[0]);
  else
    return;
  if (!withinTolerance(Got[Output], Ref, ReferenceTolerance))
    Result.problem(Where + ": output differs from the hand-written loops "
                           "(max |diff| " +
                   std::to_string(maxAbsDiff(Got[Output], Ref)) + ")");
}

} // namespace perfbench
