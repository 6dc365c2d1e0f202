//===- tests/test_tiling.cpp - Overlapped-tiling execution strategy -----------===//
//
// The overlapped tiling strategy (TilingStrategy::Overlapped: every tile
// recomputes its own halo into margin-grown scratch planes, no inter-tile
// synchronization) must be bit-identical to the AST oracle -- and so to
// the interior/halo split -- on every bundled pipeline, at every thread
// count, for every border mode, under both VM interior engines and
// optimizer settings (the shared harness of tests/EngineMatrix.h), and
// for every tile geometry -- including degenerate ones (tile larger than
// the image, 1x1 and 1xN images, tiles the reach exceeds).
//
// Also covers: KF_TILING environment resolution, tile-size resolution,
// the tile-spec parser, the overlap schedule's margin arithmetic, the per-strategy cost
// model, the execution autotuner (determinism, trace spans, metrics
// decision records), the tuned session plan, and the KF-F06 overlap
// coverage check.
//
//===----------------------------------------------------------------------===//

#include "EngineMatrix.h"

#include "analysis/FootprintCheck.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "sim/Metrics.h"
#include "sim/Session.h"
#include "sim/Tuner.h"
#include "support/Trace.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

using namespace kf;
using namespace kf::test;

namespace {

/// Fills the external inputs of \p P deterministically and runs \p FP
/// under \p Options, returning the pool.
std::vector<Image> runWith(const Program &P, const FusedProgram &FP,
                           const ExecutionOptions &Options, uint64_t Seed) {
  std::vector<Image> Pool = makeImagePool(P);
  fillExternalInputs(P, Pool, Seed);
  runFusedVm(FP, Pool, Options);
  return Pool;
}

//===--------------------------------------------------------------------===//
// Differential: both strategies == the AST oracle
//===--------------------------------------------------------------------===//

/// Registry pipelines, min-cut fused, across the engine matrix with a
/// small tile so images decompose into many overlapped tiles whose
/// margins cross tile boundaries.
class TilingEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(TilingEquivalence, OverlappedMatchesInteriorAcrossThreadsAndModes) {
  const PipelineSpec *Spec = findPipeline(GetParam());
  ASSERT_NE(Spec, nullptr);
  Program P = Spec->Builder(149, 61);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
  std::vector<Image> Inputs = makeImagePool(P);
  fillExternalInputs(P, Inputs, 977);

  ExecutionOptions Base;
  Base.TileWidth = 32;
  Base.TileHeight = 8;
  expectMatrixMatchesOracle(FP, Inputs, runOracle(FP, Inputs), GetParam(),
                            Base);
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, TilingEquivalence,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night"),
                         [](const auto &Info) { return Info.param; });

/// Border-mode sweep on the local-to-local blur chain, with and without
/// the index exchange: the halo ring path is shared between strategies,
/// but the interior rectangle overlapped tiles cover depends on the
/// reach, so sweep both.
class TilingBorder : public ::testing::TestWithParam<BorderMode> {};

TEST_P(TilingBorder, BlurChainOverlappedMatchesInterior) {
  Program P = makeBlurChain(83, 27, GetParam());
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  std::vector<Image> Inputs = makeImagePool(P);
  fillExternalInputs(P, Inputs, 4242);

  for (bool Exchange : {true, false}) {
    ExecutionOptions Base;
    Base.UseIndexExchange = Exchange;
    Base.TileWidth = 16;
    Base.TileHeight = 4;
    expectMatrixMatchesOracle(
        FP, Inputs, runOracle(FP, Inputs, Base),
        std::string(borderModeName(GetParam())) +
            (Exchange ? " (index exchange)" : " (naive)"),
        Base);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, TilingBorder,
                         ::testing::Values(BorderMode::Clamp,
                                           BorderMode::Mirror,
                                           BorderMode::Repeat,
                                           BorderMode::Constant),
                         [](const auto &Info) {
                           return std::string(borderModeName(Info.param));
                         });

//===--------------------------------------------------------------------===//
// Tile-geometry edge cases
//===--------------------------------------------------------------------===//

/// Degenerate geometries must be handled without out-of-bounds accesses
/// (this suite runs under ASan/UBSan via the sanitize-smoke label) and
/// stay bit-identical to the oracle.
class TilingGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(TilingGeometry, OverlappedMatchesInteriorOnDegenerateShapes) {
  const auto [W, H, TileW, TileH] = GetParam();
  Program P = makeBlurChain(W, H, BorderMode::Mirror);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  std::vector<Image> Inputs = makeImagePool(P);
  fillExternalInputs(P, Inputs, 11);

  ExecutionOptions Base;
  Base.TileWidth = TileW;
  Base.TileHeight = TileH;
  expectMatrixMatchesOracle(FP, Inputs, runOracle(FP, Inputs),
                            std::to_string(W) + "x" + std::to_string(H) +
                                " tile " + std::to_string(TileW) + "x" +
                                std::to_string(TileH),
                            Base);
}

INSTANTIATE_TEST_SUITE_P(
    Degenerate, TilingGeometry,
    ::testing::Values(
        std::make_tuple(33, 17, 256, 256), // Tile larger than the image.
        std::make_tuple(1, 1, 8, 8),       // 1x1 image: all halo.
        std::make_tuple(1, 23, 8, 8),      // 1xN image: all halo.
        std::make_tuple(23, 1, 8, 8),      // Nx1 image: all halo.
        std::make_tuple(37, 19, 7, 5),     // Tile sizes not dividing W/H.
        std::make_tuple(41, 21, 1, 1),     // Reach (2) larger than tile.
        std::make_tuple(40, 24, 3, 2)));   // Reach crosses several tiles.

/// Harris at a size where the fused reach is large relative to tiny
/// tiles: every plane is mostly margin, the worst case for the schedule
/// arithmetic.
TEST(TilingGeometry, HarrisReachLargerThanTile) {
  Program P = makeHarris(57, 33);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  ExecutionOptions Interior;
  Interior.Tiling = TilingStrategy::InteriorHalo;
  ExecutionOptions Overlapped = Interior;
  Overlapped.Tiling = TilingStrategy::Overlapped;
  Overlapped.TileWidth = 2;
  Overlapped.TileHeight = 2;

  std::vector<Image> Want = runWith(P, FP, Interior, 29);
  std::vector<Image> Got = runWith(P, FP, Overlapped, 29);
  expectPoolsIdentical(P, Got, Want, "harris tiny tiles");
}

//===--------------------------------------------------------------------===//
// Strategy / tile-size resolution
//===--------------------------------------------------------------------===//

/// KF_TILING resolution mirrors KF_VM: explicit requests win, malformed
/// values fall back to the interior default with a once-per-process
/// warning. Runs in one process, so manipulate and restore carefully.
TEST(TilingResolve, ResolveTilingStrategyHonorsEnvironment) {
  const char *Saved = std::getenv("KF_TILING");
  std::string SavedCopy = Saved ? Saved : "";

  ::unsetenv("KF_TILING");
  EXPECT_EQ(resolveTilingStrategy(TilingStrategy::Auto),
            TilingStrategy::InteriorHalo);

  ::setenv("KF_TILING", "overlapped", 1);
  EXPECT_EQ(resolveTilingStrategy(TilingStrategy::Auto),
            TilingStrategy::Overlapped);

  ::setenv("KF_TILING", "interior", 1);
  EXPECT_EQ(resolveTilingStrategy(TilingStrategy::Auto),
            TilingStrategy::InteriorHalo);

  ::setenv("KF_TILING", "tuned", 1);
  EXPECT_EQ(resolveTilingStrategy(TilingStrategy::Auto),
            TilingStrategy::Tuned);

  // Malformed values fall back to the interior/halo default.
  ::setenv("KF_TILING", "diagonal", 1);
  EXPECT_EQ(resolveTilingStrategy(TilingStrategy::Auto),
            TilingStrategy::InteriorHalo);

  // Explicit requests win regardless of the environment.
  ::setenv("KF_TILING", "overlapped", 1);
  EXPECT_EQ(resolveTilingStrategy(TilingStrategy::InteriorHalo),
            TilingStrategy::InteriorHalo);
  ::setenv("KF_TILING", "interior", 1);
  EXPECT_EQ(resolveTilingStrategy(TilingStrategy::Overlapped),
            TilingStrategy::Overlapped);

  if (Saved)
    ::setenv("KF_TILING", SavedCopy.c_str(), 1);
  else
    ::unsetenv("KF_TILING");
}

TEST(TilingResolve, StrategyNames) {
  EXPECT_STREQ(tilingStrategyName(TilingStrategy::Auto), "auto");
  EXPECT_STREQ(tilingStrategyName(TilingStrategy::InteriorHalo),
               "interior");
  EXPECT_STREQ(tilingStrategyName(TilingStrategy::Overlapped),
               "overlapped");
  EXPECT_STREQ(tilingStrategyName(TilingStrategy::Tuned), "tuned");
}

TEST(TilingResolve, ParseTileSpecAcceptsOnlyWellFormedRanges) {
  int W = -1, H = -1;
  EXPECT_TRUE(parseTileSpec("128x32", W, H));
  EXPECT_EQ(W, 128);
  EXPECT_EQ(H, 32);
  EXPECT_TRUE(parseTileSpec("1x65536", W, H));
  EXPECT_EQ(W, 1);
  EXPECT_EQ(H, 65536);

  // Garbage is rejected and leaves the outputs untouched.
  W = H = -1;
  EXPECT_FALSE(parseTileSpec(nullptr, W, H));
  EXPECT_FALSE(parseTileSpec("", W, H));
  EXPECT_FALSE(parseTileSpec("128", W, H));
  EXPECT_FALSE(parseTileSpec("x32", W, H));
  EXPECT_FALSE(parseTileSpec("128x", W, H));
  EXPECT_FALSE(parseTileSpec("128x32x8", W, H));
  EXPECT_FALSE(parseTileSpec("128x32 ", W, H));
  EXPECT_FALSE(parseTileSpec("axb", W, H));
  // Both components must start with a digit: strtol's own leading-space
  // and sign tolerance ("  12", "+8") is not part of the WxH grammar.
  EXPECT_FALSE(parseTileSpec(" 12x34", W, H));
  EXPECT_FALSE(parseTileSpec("+8x+8", W, H));
  EXPECT_FALSE(parseTileSpec("8x+8", W, H));
  EXPECT_FALSE(parseTileSpec("8x 8", W, H));
  EXPECT_FALSE(parseTileSpec("0x32", W, H));
  EXPECT_FALSE(parseTileSpec("-4x8", W, H));
  EXPECT_FALSE(parseTileSpec("65537x1", W, H));
  EXPECT_FALSE(parseTileSpec("99999999999999999999x4", W, H));
  EXPECT_EQ(W, -1);
  EXPECT_EQ(H, -1);
}

TEST(TilingResolve, ResolveTileSizeExplicitWinsOverDefaults) {
  int W = 0, H = 0;
  ExecutionOptions Options;

  // Strategy defaults: full rows for interior, an L2 block for
  // overlapped; both clamped to the image.
  resolveTileSize(Options, TilingStrategy::InteriorHalo, 640, 480, 2, W, H);
  EXPECT_EQ(W, 640);
  EXPECT_GE(H, 1);
  resolveTileSize(Options, TilingStrategy::Overlapped, 640, 480, 2, W, H);
  EXPECT_EQ(W, 128);
  EXPECT_EQ(H, 32);
  resolveTileSize(Options, TilingStrategy::Overlapped, 20, 10, 2, W, H);
  EXPECT_EQ(W, 20); // Clamped to the image.
  EXPECT_EQ(H, 10);

  // An explicit tile wins over either strategy's default...
  Options.TileWidth = 48;
  Options.TileHeight = 12;
  for (TilingStrategy Strategy :
       {TilingStrategy::InteriorHalo, TilingStrategy::Overlapped}) {
    resolveTileSize(Options, Strategy, 640, 480, 2, W, H);
    EXPECT_EQ(W, 48) << tilingStrategyName(Strategy);
    EXPECT_EQ(H, 12) << tilingStrategyName(Strategy);
  }
  // ...one extent at a time, the other keeping its default...
  Options.TileHeight = 0;
  resolveTileSize(Options, TilingStrategy::Overlapped, 640, 480, 2, W, H);
  EXPECT_EQ(W, 48);
  EXPECT_EQ(H, 32);
  // ...and is still clamped to the image.
  Options.TileWidth = 4096;
  Options.TileHeight = 4096;
  resolveTileSize(Options, TilingStrategy::Overlapped, 640, 480, 2, W, H);
  EXPECT_EQ(W, 640);
  EXPECT_EQ(H, 480);
}

/// End-to-end: KF_TILING=overlapped must produce bit-identical results
/// through the default Auto options (the configuration the CI
/// tiling-differential job runs the whole suite under).
TEST(TilingResolve, EnvironmentSelectedOverlappedIsBitIdentical) {
  const char *Saved = std::getenv("KF_TILING");
  std::string SavedCopy = Saved ? Saved : "";

  Program P = makeSobel(70, 30);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  ::setenv("KF_TILING", "interior", 1);
  std::vector<Image> Want = runWith(P, FP, ExecutionOptions(), 5);
  ::setenv("KF_TILING", "overlapped", 1);
  std::vector<Image> Got = runWith(P, FP, ExecutionOptions(), 5);
  expectPoolsIdentical(P, Got, Want, "env overlapped");

  if (Saved)
    ::setenv("KF_TILING", SavedCopy.c_str(), 1);
  else
    ::unsetenv("KF_TILING");
}

//===--------------------------------------------------------------------===//
// Overlap schedule arithmetic
//===--------------------------------------------------------------------===//

TEST(OverlapSchedule, BlurChainMarginsMatchReach) {
  // Two chained 3x3 blurs: the eliminated first blur's plane must extend
  // 1 pixel beyond the tile (the second blur's window radius), and with
  // its own 3x3 loads on top that exactly spends the fused reach of 2.
  Program P = makeBlurChain(40, 20, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  ASSERT_EQ(SP.Stages.size(), 2u);
  ASSERT_EQ(SP.Reach[Root], 2);

  OverlapSchedule Schedule = buildOverlapSchedule(SP, Root, 1);
  ASSERT_TRUE(Schedule.Valid);
  ASSERT_EQ(Schedule.PerChannel.size(), 1u);
  ASSERT_EQ(Schedule.PerChannel[0].size(), 1u); // One eliminated stage.
  EXPECT_EQ(Schedule.PerChannel[0][0].Stage, 0u);
  EXPECT_EQ(Schedule.PerChannel[0][0].Margin, 1);
  EXPECT_EQ(Schedule.MaxMargin, 1);

  // The scratch requirement covers the margin-grown plane.
  size_t Floats = overlapPlaneFloats(Schedule, 16, 8);
  EXPECT_EQ(Floats, static_cast<size_t>(16 + 2) * (8 + 2));
}

TEST(OverlapSchedule, MarginPlusLoadHaloStaysWithinReach) {
  // The margin-safety invariant the executor relies on, checked here for
  // every registry pipeline: every demanded plane's margin plus that
  // stage's direct load halo is covered by the root's recorded reach.
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 32);
    Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
    FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
    for (const FusedKernel &FK : FP.Kernels) {
      StagedVmProgram SP = compileFusedKernel(FP, FK);
      if (!SP.UniformExtents)
        continue;
      for (KernelId DestId : FK.Destinations) {
        uint16_t Root = FK.stageIndex(DestId);
        const ImageInfo &Info = P.image(P.kernel(DestId).Output);
        OverlapSchedule Schedule =
            buildOverlapSchedule(SP, Root, Info.Channels);
        ASSERT_TRUE(Schedule.Valid) << Spec.Name;
        DiagnosticEngine DE;
        checkOverlapCoverage(SP, Root, SP.Reach[Root], DE);
        EXPECT_EQ(DE.errorCount(), 0u)
            << Spec.Name << ": " << DE.renderText();
        EXPECT_LE(Schedule.MaxMargin, SP.Reach[Root]) << Spec.Name;
      }
    }
  }
}

TEST(OverlapSchedule, MixedExtentsAreRejected) {
  // The night filter's a-trous chain on mixed-size inputs is not the
  // concern here -- build a schedule from a program whose UniformExtents
  // flag is false and expect Valid == false (the executor falls back).
  Program P = makeBlurChain(40, 20, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  SP.UniformExtents = false;
  OverlapSchedule Schedule = buildOverlapSchedule(
      SP, static_cast<uint16_t>(SP.Stages.size() - 1), 1);
  EXPECT_FALSE(Schedule.Valid);
}

//===--------------------------------------------------------------------===//
// KF-F06: overlap coverage check
//===--------------------------------------------------------------------===//

TEST(OverlapCoverage, UndersizedHaloIsDiagnosed) {
  Program P = makeBlurChain(40, 20, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  ASSERT_EQ(SP.Reach[Root], 2);

  DiagnosticEngine Good;
  checkOverlapCoverage(SP, Root, 2, Good);
  EXPECT_EQ(Good.errorCount(), 0u) << Good.renderText();

  // A halo of 1 cannot cover the eliminated blur's margin (1) plus its
  // own 3x3 load halo (1): grown tiles would read out of bounds.
  DiagnosticEngine Bad;
  checkOverlapCoverage(SP, Root, 1, Bad);
  EXPECT_GT(Bad.errorCount(), 0u);
  EXPECT_TRUE(Bad.hasCode("KF-F06")) << Bad.renderText();

  // Mixed extents skip the check (overlapped execution falls back).
  SP.UniformExtents = false;
  DiagnosticEngine Skipped;
  checkOverlapCoverage(SP, Root, 0, Skipped);
  EXPECT_EQ(Skipped.errorCount(), 0u);
}

//===--------------------------------------------------------------------===//
// Per-strategy cost model
//===--------------------------------------------------------------------===//

TEST(TilingCostModel, DefaultStrategyAccountingUnchanged) {
  Program P = makeHarris(128, 128);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);

  ProgramStats Default = accountFusedProgram(FP);
  ProgramStats Explicit =
      accountFusedProgram(FP, TileShape(), TilingStrategy::InteriorHalo);
  ASSERT_EQ(Default.Launches.size(), Explicit.Launches.size());
  for (size_t I = 0; I != Default.Launches.size(); ++I) {
    EXPECT_DOUBLE_EQ(Default.Launches[I].AluOps,
                     Explicit.Launches[I].AluOps);
    EXPECT_DOUBLE_EQ(Default.Launches[I].SharedAccesses,
                     Explicit.Launches[I].SharedAccesses);
    EXPECT_DOUBLE_EQ(Default.Launches[I].SharedBytesPerBlock,
                     Explicit.Launches[I].SharedBytesPerBlock);
    EXPECT_DOUBLE_EQ(Default.Launches[I].GlobalBytesRead,
                     Explicit.Launches[I].GlobalBytesRead);
  }
}

TEST(TilingCostModel, OverlappedTradesRecomputeForPlaneTraffic) {
  // A point producer so expensive that recompute chains dominate: the
  // overlapped strategy, which evaluates each stage once per plane cell,
  // must charge fewer ALU ops than interior/halo recompute -- and pay for
  // it in on-chip plane traffic and per-block plane bytes.
  Program P = makePointToLocal(256, 256, 64);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  const TileShape Tile{32, 8};

  ProgramStats Interior =
      accountFusedProgram(FP, Tile, TilingStrategy::InteriorHalo);
  ProgramStats Overlapped =
      accountFusedProgram(FP, Tile, TilingStrategy::Overlapped);
  ASSERT_EQ(Interior.Launches.size(), 1u);
  ASSERT_EQ(Overlapped.Launches.size(), 1u);

  EXPECT_LT(Overlapped.totalAluOps(), Interior.totalAluOps());
  EXPECT_GT(Overlapped.Launches[0].SharedBytesPerBlock,
            Interior.Launches[0].SharedBytesPerBlock);
}

//===--------------------------------------------------------------------===//
// Execution autotuner
//===--------------------------------------------------------------------===//

TEST(ExecTuner, DeterministicAndExploresWholeGrid) {
  Program P = makeHarris(256, 256);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
  DeviceSpec Device = MetricsRegistry::referenceDevice();

  ExecTuneResult A = tuneExecution(FP, Device, CostModelParams());
  ExecTuneResult B = tuneExecution(FP, Device, CostModelParams());
  EXPECT_EQ(A.Explored.size(), defaultExecTuneGrid().size());
  ASSERT_FALSE(A.Explored.empty());
  EXPECT_EQ(A.Best.Candidate.Strategy, B.Best.Candidate.Strategy);
  EXPECT_EQ(A.Best.Candidate.Tile.Width, B.Best.Candidate.Tile.Width);
  EXPECT_EQ(A.Best.Candidate.Tile.Height, B.Best.Candidate.Tile.Height);
  EXPECT_DOUBLE_EQ(A.Best.TimeMs, B.Best.TimeMs);
  for (const ExecTunePoint &Point : A.Explored) {
    EXPECT_GT(Point.TimeMs, 0.0);
    EXPECT_GE(Point.TimeMs, A.Best.TimeMs); // Best is the minimum.
  }
}

TEST(ExecTuner, DecisionIsDebuggableFromTraceAlone) {
  TraceRecorder &TR = TraceRecorder::global();
  TR.clear();
  TR.setEnabled(true);

  Program P = makeHarris(128, 128);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
  ExecTuneResult Result = tuneExecution(
      FP, MetricsRegistry::referenceDevice(), CostModelParams());

  unsigned Decisions = 0, Candidates = 0;
  double BestMs = -1.0, BestOverlapped = -1.0;
  for (const TraceSpanRecord &Span : TR.spans()) {
    if (Span.Name == "tuner.candidate")
      ++Candidates;
    if (Span.Name != "tuner.execution")
      continue;
    ++Decisions;
    for (const auto &[Key, Value] : Span.Args) {
      if (Key == "best_predicted_ms")
        BestMs = Value;
      if (Key == "best_overlapped")
        BestOverlapped = Value;
    }
  }
  EXPECT_EQ(Decisions, 1u);
  EXPECT_EQ(Candidates, static_cast<unsigned>(defaultExecTuneGrid().size()));
  EXPECT_DOUBLE_EQ(BestMs, Result.Best.TimeMs);
  EXPECT_EQ(BestOverlapped,
            Result.Best.Candidate.Strategy == TilingStrategy::Overlapped
                ? 1.0
                : 0.0);

  TR.setEnabled(false);
  TR.clear();
}

TEST(ExecTuner, DecisionIsRecordedInMetrics) {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Registry.clear();
  Registry.setEnabled(true);

  Program P = makeHarris(128, 128);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
  ExecTuneResult Result = tuneExecution(
      FP, MetricsRegistry::referenceDevice(), CostModelParams());

  std::vector<TunerDecisionRecord> Decisions = Registry.tunerDecisions();
  ASSERT_EQ(Decisions.size(), 1u);
  EXPECT_EQ(Decisions[0].Program, P.name());
  EXPECT_EQ(Decisions[0].Strategy, Result.Best.Candidate.Strategy);
  EXPECT_DOUBLE_EQ(Decisions[0].PredictedMs, Result.Best.TimeMs);
  EXPECT_EQ(Decisions[0].Candidates,
            static_cast<unsigned>(defaultExecTuneGrid().size()));
  // The decision renders into the metrics table.
  std::string Table = Registry.renderTable();
  EXPECT_NE(Table.find("tuned tiling"), std::string::npos);

  Registry.setEnabled(false);
  Registry.clear();
}

//===--------------------------------------------------------------------===//
// Tuned plans and sessions
//===--------------------------------------------------------------------===//

TEST(TilingSession, TunedPlanMatchesExplicitStrategies) {
  Program P = makeHarris(96, 48);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);

  auto RunSession = [&](TilingStrategy Strategy) {
    ExecutionOptions Options;
    Options.Threads = 2;
    Options.Tiling = Strategy;
    PlanCache Cache(4);
    PipelineSession Session(FP, Options, &Cache);
    std::vector<Image> Frame = Session.acquireFrame();
    Rng Gen(333);
    for (ImageId Id : P.externalInputs()) {
      const ImageInfo &Info = P.image(Id);
      Frame[Id] =
          makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen);
    }
    Session.runFrame(Frame);
    return Frame;
  };

  std::vector<Image> Interior = RunSession(TilingStrategy::InteriorHalo);
  std::vector<Image> Overlapped = RunSession(TilingStrategy::Overlapped);
  std::vector<Image> Tuned = RunSession(TilingStrategy::Tuned);
  expectPoolsIdentical(P, Overlapped, Interior, "session overlapped");
  expectPoolsIdentical(P, Tuned, Interior, "session tuned");
}

TEST(TilingSession, TunedPlanCarriesTheTunerDecision) {
  Program P = makeHarris(96, 48);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);

  ExecutionOptions Plain;
  Plain.Tiling = TilingStrategy::InteriorHalo; // Pin against KF_TILING.
  std::shared_ptr<const CompiledPlan> PlainPlan = compilePlan(FP, Plain);
  EXPECT_FALSE(PlainPlan->Tuning.Active);

  ExecutionOptions Tuned;
  Tuned.Tiling = TilingStrategy::Tuned;
  std::shared_ptr<const CompiledPlan> TunedPlan = compilePlan(FP, Tuned);
  EXPECT_TRUE(TunedPlan->Tuning.Active);
  EXPECT_GT(TunedPlan->Tuning.PredictedMs, 0.0);

  ExecTuneResult Expect = tuneExecution(
      FP, MetricsRegistry::referenceDevice(), CostModelParams());
  EXPECT_EQ(TunedPlan->Tuning.Strategy, Expect.Best.Candidate.Strategy);
  EXPECT_EQ(TunedPlan->Tuning.TileWidth, Expect.Best.Candidate.Tile.Width);
  EXPECT_EQ(TunedPlan->Tuning.TileHeight,
            Expect.Best.Candidate.Tile.Height);

  // Distinct strategies key distinct plans.
  EXPECT_NE(PlainPlan->Key, TunedPlan->Key);
}

//===--------------------------------------------------------------------===//
// Trace counters and launch metrics
//===--------------------------------------------------------------------===//

TEST(TilingTrace, OverlappedLaunchEmitsTileCounters) {
  TraceRecorder &TR = TraceRecorder::global();
  TR.clear();
  TR.setEnabled(true);

  Program P = makeBlurChain(96, 40, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  ExecutionOptions Options;
  Options.Threads = 1;
  Options.Tiling = TilingStrategy::Overlapped;
  Options.TileWidth = 16;
  Options.TileHeight = 8;
  (void)runWith(P, FP, Options, 77);

  std::map<std::string, double> Counters = TR.counters();
  ASSERT_TRUE(Counters.count("tile.overlap_pixels"));
  EXPECT_GT(Counters.at("tile.overlap_pixels"), 0.0);
  ASSERT_TRUE(Counters.count("tile.redundant_halo_ms"));
  EXPECT_GE(Counters.at("tile.redundant_halo_ms"), 0.0);
  // The launch span labels the strategy.
  bool SawOverlappedLaunch = false;
  for (const TraceSpanRecord &Span : TR.spans())
    if (Span.Name.rfind("launch ", 0) == 0)
      for (const auto &[Key, Value] : Span.Args)
        if (Key == "tiling_overlapped" && Value == 1.0)
          SawOverlappedLaunch = true;
  EXPECT_TRUE(SawOverlappedLaunch);

  TR.setEnabled(false);
  TR.clear();
}

TEST(TilingTrace, LaunchMetricsSplitPerStrategy) {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Registry.clear();
  Registry.setEnabled(true);

  Program P = makeBlurChain(96, 40, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  ExecutionOptions Options;
  Options.Threads = 1;
  Options.Tiling = TilingStrategy::InteriorHalo;
  (void)runWith(P, FP, Options, 78);
  Options.Tiling = TilingStrategy::Overlapped;
  (void)runWith(P, FP, Options, 78);

  std::vector<LaunchModelRecord> Records = Registry.records();
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].Runs, 2u);
  EXPECT_EQ(Records[0].InteriorTilingRuns, 1u);
  EXPECT_EQ(Records[0].OverlappedRuns, 1u);
  // The speedup needs both strategies' wall time above timer resolution;
  // on a fast box a tiny launch can legitimately measure 0 ms.
  if (Records[0].OverlappedMs > 0.0 && Records[0].InteriorTilingMs > 0.0) {
    EXPECT_GT(Records[0].overlappedSpeedup(), 0.0);
  }
  std::string Json = Registry.toJson();
  EXPECT_NE(Json.find("\"overlapped_runs\""), std::string::npos);
  EXPECT_NE(Json.find("\"overlapped_speedup\""), std::string::npos);

  Registry.setEnabled(false);
  Registry.clear();
}

} // namespace
