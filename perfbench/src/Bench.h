//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the run
/// configuration parsed from the command line, the result it prints as
/// its last line, small statistics helpers, the layer spans the traced
/// mode records around calls into the library, and the host block.
///
/// Layer spans are recorded from the benchmark's own files only: each
/// wraps one public library call (parse, lint, partition, runFrame, ...)
/// and goes into the library's TraceRecorder under the "perfbench"
/// category, next to whatever spans the library records itself while
/// tracing is on.
///
//===----------------------------------------------------------------------===//

#ifndef KF_PERFBENCH_BENCH_H
#define KF_PERFBENCH_BENCH_H

#include "image/Image.h"
#include "ir/Program.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kf {
struct CompiledPlan;
struct FusedProgram;
} // namespace kf

namespace perfbench {

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Small frames and short runs, for the benchmark's own tests.
  bool Quick = false;
  /// Where the traced mode writes its chrome://tracing JSON ("" = none).
  std::string TraceOut;
};

/// The result a run prints as its last line.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  /// Reports a failed output check on stderr: the run is no longer
  /// correct.
  void problem(const std::string &Message);
  /// The single-line JSON object the benchmark prints last.
  std::string json() const;
};

/// Milliseconds elapsed since \p Start.
inline double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Linear-interpolated quantile \p Q in [0, 1] of \p Values (copied).
double quantile(std::vector<double> Values, double Q);
inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}
inline double mean(const std::vector<double> &Values) {
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Values.empty() ? 0.0 : Sum / static_cast<double>(Values.size());
}

/// Wraps one call into a library layer. While the library's TraceRecorder
/// is enabled (traced mode) the span is recorded under \p Name in the
/// "perfbench" category; otherwise it costs one relaxed atomic load.
class LayerSpan {
public:
  explicit LayerSpan(std::string NameIn);
  ~LayerSpan();
  LayerSpan(const LayerSpan &) = delete;
  LayerSpan &operator=(const LayerSpan &) = delete;

private:
  std::string Name;
  bool Active;
  double StartUs = 0.0;
};

/// Runs \p Fn inside a LayerSpan named \p Name.
template <typename Fn> decltype(auto) layer(const std::string &Name, Fn &&F) {
  LayerSpan Span(Name);
  return F();
}

/// Per-name durations (ms) of the perfbench layer spans recorded so far,
/// and the traced pass's accounting over [\p PassStartUs, \p PassEndUs]
/// on the calling thread: the wall time no layer span covers.
///
/// A span named "<layer>@<pipeline>" counts towards <layer> for one
/// pipeline: the layer's reported time is then the geometric mean over
/// pipelines of each pipeline's median, so a pipeline run more often
/// than the others does not outweigh them.
struct LayerSummary {
  std::map<std::string, std::vector<double>> DurationsMs;
  double WallMs = 0.0;
  double UnattributedMs = 0.0;
};
LayerSummary summarizeLayers(double PassStartUs, double PassEndUs);

/// Prints the per-layer summary table and, when \p Path is non-empty,
/// writes every recorded span (library and benchmark) as chrome://tracing
/// JSON with the summary under "otherData". Returns false on I/O failure.
bool writeTrace(const LayerSummary &Summary, const std::string &Path);

/// Counts that repeat exactly for a given set of pipelines, summed over
/// the workload's distinct pipelines (Load.cpp).
struct PlanCounts {
  double Kernels = 0, Launches = 0, Insts = 0, OptRemoved = 0,
         JitRefused = 0, BytesMoved = 0;
  void add(const kf::FusedProgram &Fused, const kf::CompiledPlan &Plan);
};

/// What a traced run measured besides its layer spans.
struct TracedRun {
  PlanCounts Counts;
  double PlanHits = 0, PlanMisses = 0;
  /// probeMs() values taken around the measured work.
  std::vector<double> ProbesMs;
  /// Per-frame execution times a workload takes from the library instead
  /// of from "sim.exec" spans (the server's queue/exec split).
  std::vector<double> ExecMs;
  double UntracedWallMs = 0.0, PassStartUs = 0.0, PassEndUs = 0.0;
};

/// Stops tracing, writes the trace (RunConfig::TraceOut), measures the
/// host's copy bandwidth and ALU rate, and adds every per-layer metric to
/// \p Result. The same metrics, by name and unit, for every workload.
void reportTraced(const RunConfig &Config, const TracedRun &T,
                  RunResult &Result);

/// Microseconds on the TraceRecorder clock (the clock of every span).
double traceNowUs();

/// Enables the library's TraceRecorder; with \p Clear, drops what it
/// holds first.
void startTracing(bool Clear = true);

/// Logical CPUs this process may run on.
unsigned availableCores();

/// Restricts the calling thread to the core, among those the process may
/// use, on which a short L1-resident probe loop runs fastest right now.
/// On a host whose cores are shared with other machines' hyperthreads,
/// single-thread speed differs between cores by up to 2x for stretches
/// of seconds; the workloads, each single-threaded, call this before
/// every `stream` frame, every `build` and `serve` round and every
/// set-up. Returns the chosen core's probeMs().
double moveToQuietestCore();

/// Time of a fixed ~1 ms L1-resident multiply-add loop on the current
/// core: the benchmark's gauge of how fast the core runs right now.
double probeMs();

/// A run-level gauge of how fast the host runs, right now, the kind of
/// work a workload does: a fixed task made of the benchmark's own code
/// (hand-written loops, the generator), timed on the measuring core once
/// per round (`build`, `serve`) or before every frame (`stream`). Neighbours on a shared host slow the program and the
/// gauge alike, so a run's times multiplied by factor() describe the
/// host in the state in which the gauge takes ReferenceMs; a change to
/// the library moves the program's times and not the gauge's.
///
/// The run's statistic is the median of SamplesMs. `build`, which reports
/// each operation's fastest time, fills SamplesMs with the fastest time
/// of each piece of its gauge instead of calling sample().
struct Gauge {
  double ReferenceMs;
  std::vector<double> SamplesMs;

  explicit Gauge(double ReferenceMsIn) : ReferenceMs(ReferenceMsIn) {}
  /// Times \p Task into SamplesMs (a "bench.gauge" span when traced).
  template <typename Fn> void sample(Fn &&Task) {
    LayerSpan Span("bench.gauge");
    auto Start = std::chrono::steady_clock::now();
    Task();
    SamplesMs.push_back(msSince(Start));
  }
  double factor() const { return ReferenceMs / median(SamplesMs); }
  /// Reports the gauge and the run's raw figures on stderr.
  void report(double SetupS, double OpMs, double MpixPerS) const;
};

/// Gives the calling thread back every core the process may use (threads
/// it creates afterwards inherit that mask).
void releaseCore();

/// Prints the host block: cores, CPU model, compiler, build type, source
/// identity (passed in by run.py, "unknown" otherwise).
void printHostBlock();

/// Memory copy bandwidth in GB/s (bytes read plus bytes written per
/// second) over buffers far larger than the last-level cache per core.
double measureCopyGbps(bool Quick);

/// Single-thread float multiply-add throughput in G operations per second
/// over an L1-resident array.
double measureAluGops(bool Quick);

/// Deterministic uniform [0, 1) image from a 64-bit seed.
kf::Image seededImage(int Width, int Height, int Channels, uint64_t Seed);

/// Mixes a seed with a stream label into an independent 64-bit seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Label);

/// Largest |A - B| over two same-shaped images; +inf when shapes differ
/// or either holds a NaN where the other does not.
double maxAbsDiff(const kf::Image &A, const kf::Image &B);

/// True when every sample of \p Got lies within
/// \p Rel * max(1, |ref|) of \p Ref.
bool withinTolerance(const kf::Image &Got, const kf::Image &Ref, double Rel);

/// Checks one fused frame: every image it wrote (non-empty, not an
/// input) bit-exactly against the unfused AST interpreter (runUnfused, no
/// fusion, bytecode, optimizer or JIT) on the same \p Inputs, and, for
/// the registry "sobel" and "unsharp" pipelines (\p App), \p Output
/// against the hand-written loops of Reference.h within tolerance.
/// \p Got is the whole frame pool. Failures go to \p Result.
void checkFrame(const kf::Program &P, const std::string &App,
                const std::string &Where, const std::vector<kf::ImageId> &Ids,
                const std::vector<kf::Image> &Inputs,
                const std::vector<kf::Image> &Got, kf::ImageId Output,
                int Threads, RunResult &Result);

// Workload entry points.
RunResult runStream(const RunConfig &Config);
RunResult runBuild(const RunConfig &Config);
RunResult runServe(const RunConfig &Config);

} // namespace perfbench

#endif // KF_PERFBENCH_BENCH_H
