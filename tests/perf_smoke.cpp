//===- tests/perf_smoke.cpp - Interior engine ratio gate -------------------===//
//
// A noise-aware performance smoke test: ratio invariants only, never
// absolute milliseconds. The JIT interior exists to beat the span
// interpreter it was built from; both run the same lane kernels, so on
// the same pipeline the JIT (no per-instruction dispatch) must be no
// slower. Harris at 1024x1024 on one worker: a warm PipelineSession per
// engine, frames run alternately, interior time per frame read from the
// MetricsRegistry, best of five each; outputs bit-identical.
//
// Registered as the `perf-smoke` ctest label with RUN_SERIAL, so no other
// test competes for the cores while it measures.
//
//===----------------------------------------------------------------------===//

#include "EngineMatrix.h"

#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "pipelines/Pipelines.h"
#include "sim/Metrics.h"
#include "sim/Session.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace kf;
using namespace kf::test;

namespace {

TEST(PerfSmoke, JitInteriorNoSlowerThanSpanOnHarris) {
  constexpr int Size = 1024, Reps = 5;
  Program P = makeHarris(Size, Size);
  FusedProgram FP = fuseProgram(
      P, runMinCutFusion(P, HardwareModel()).Blocks, FusionStyle::Optimized);

  ExecutionOptions Options;
  Options.Threads = 1;
  Options.Tiling = TilingStrategy::InteriorHalo;
  ExecutionOptions SpanOptions = Options, JitOptions = Options;
  SpanOptions.Mode = VmMode::Span;
  JitOptions.Mode = VmMode::Jit;
  PipelineSession SpanSession(FP, SpanOptions), JitSession(FP, JitOptions);
  std::vector<Image> SpanFrame = SpanSession.acquireFrame();
  std::vector<Image> JitFrame = JitSession.acquireFrame();
  fillExternalInputs(P, SpanFrame, 512);
  fillExternalInputs(P, JitFrame, 512);
  // Warm both sessions: plan compiled, frame buffers written once.
  SpanSession.runFrame(SpanFrame);
  JitSession.runFrame(JitFrame);

  // One frame of \p Session; returns the interior milliseconds its
  // launches booked under \p Mode.
  MetricsRegistry &Metrics = MetricsRegistry::global();
  Metrics.setEnabled(true);
  auto interiorMs = [&](PipelineSession &Session, std::vector<Image> &Frame,
                        VmMode Mode) {
    Metrics.clear();
    Session.runFrame(Frame);
    double Ms = 0.0;
    for (const LaunchModelRecord &R : Metrics.records()) {
      EXPECT_EQ(Mode == VmMode::Jit ? R.JitRuns : R.SpanRuns, 1u)
          << R.Launch << " ran another engine";
      Ms += Mode == VmMode::Jit ? R.JitInteriorMs : R.SpanInteriorMs;
    }
    return Ms;
  };
  double SpanMs = std::numeric_limits<double>::infinity();
  double JitMs = SpanMs;
  for (int R = 0; R != Reps; ++R) {
    SpanMs = std::min(SpanMs, interiorMs(SpanSession, SpanFrame,
                                         VmMode::Span));
    JitMs = std::min(JitMs, interiorMs(JitSession, JitFrame, VmMode::Jit));
  }
  Metrics.setEnabled(false);

  double MaxDiff = 0.0;
  for (const FusedKernel &FK : FP.Kernels)
    for (KernelId Dest : FK.Destinations) {
      ImageId Out = P.kernel(Dest).Output;
      MaxDiff = std::max(MaxDiff,
                         maxAbsDifference(SpanFrame[Out], JitFrame[Out]));
    }
  EXPECT_EQ(MaxDiff, 0.0);
  EXPECT_LE(JitMs, SpanMs) << "best of " << Reps << ": jit interior "
                           << JitMs << " ms, span interior " << SpanMs
                           << " ms";
  RecordProperty("span_interior_ms", std::to_string(SpanMs));
  RecordProperty("jit_interior_ms", std::to_string(JitMs));
}

} // namespace
