//===- tests/test_vmspan.cpp - Span-mode VM vs the AST oracle ------------------===//
//
// The lane-batched span interior (runStagedVmSpan, VmMode::Span) and its
// JIT (VmMode::Jit) must be bit-identical to the AST oracle (runFused /
// runUnfused) on every bundled pipeline, fused and unfused, under every
// tiling strategy, optimizer setting and thread count, for every border
// mode, and to the per-pixel bordered evaluator (runStagedVm) across every
// tail width around the lane boundary. Interior spans on and around the
// chunk boundaries (63..191 pixels, 1 and 3 channels, rows split across
// tiles) pin the shifted last chunk of lane::forEachChunk. The engine
// matrix is the shared harness of tests/EngineMatrix.h.
//
// Also covers the KF_VM environment resolution (resolveVmMode).
//
//===----------------------------------------------------------------------===//

#include "EngineMatrix.h"

#include "fusion/MinCutPartitioner.h"
#include "image/Generators.h"
#include "jit/JitProgram.h"
#include "pipelines/Masks.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

using namespace kf;
using namespace kf::test;

namespace {

/// A registry pipeline at test size with deterministic random inputs.
struct TestApp {
  Program P;
  std::vector<Image> Inputs;
};

TestApp makeTestApp(const std::string &Name) {
  const PipelineSpec *Spec = findPipeline(Name);
  EXPECT_NE(Spec, nullptr);
  // Wide enough that interior rows span several lane chunks plus a tail.
  int W = VmLaneWidth * 2 + 21;
  TestApp App{Spec->Builder(W, 24), {}};
  App.Inputs = makeImagePool(App.P);
  fillExternalInputs(App.P, App.Inputs, 977);
  return App;
}

/// Span and jit differential across the bundled applications, fused with
/// the paper's min-cut partition. "Scalar" in the test names is the
/// per-pixel evaluation the span interior must reproduce: the AST oracle.
class VmSpanEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(VmSpanEquivalence, FusedSpanMatchesScalarAcrossThreadCounts) {
  TestApp App = makeTestApp(GetParam());
  Partition Blocks = runMinCutFusion(App.P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(App.P, Blocks, FusionStyle::Optimized);

  ExecutionOptions Base;
  Base.TileHeight = 3; // Force multiple tiles even on small images.
  expectMatrixMatchesOracle(FP, App.Inputs, runOracle(FP, App.Inputs),
                            GetParam() + " fused", Base);
}

/// Unfused programs run as single-stage staged launches
/// (unfusedProgram(P)) and must match the unfused AST walker.
TEST_P(VmSpanEquivalence, UnfusedSpanMatchesScalarAcrossThreadCounts) {
  TestApp App = makeTestApp(GetParam());
  FusedProgram Unfused = unfusedProgram(App.P);

  std::vector<Image> Oracle = App.Inputs;
  runUnfused(App.P, Oracle);

  ExecutionOptions Base;
  Base.TileHeight = 3;
  expectMatrixMatchesOracle(Unfused, App.Inputs, Oracle,
                            GetParam() + " unfused", Base);
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, VmSpanEquivalence,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night"),
                         [](const auto &Info) { return Info.param; });

/// Border-mode sweep, with and without the index exchange (the halo path
/// is shared, but the interior/halo split depends on the reach, so sweep
/// both), fused and unfused.
class VmSpanBorder : public ::testing::TestWithParam<BorderMode> {};

TEST_P(VmSpanBorder, BlurChainSpanMatchesScalar) {
  BorderMode Mode = GetParam();
  int W = VmLaneWidth + 19, H = 14;
  Program P = makeBlurChain(W, H, Mode);
  std::vector<Image> Inputs = makeImagePool(P);
  fillExternalInputs(P, Inputs, 4242);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  FusedProgram Unfused = unfusedProgram(P);

  for (bool Exchange : {true, false}) {
    ExecutionOptions Base;
    Base.UseIndexExchange = Exchange;
    std::string Tag = std::string(borderModeName(Mode)) +
                      (Exchange ? " (index exchange)" : " (naive)");
    expectMatrixMatchesOracle(FP, Inputs, runOracle(FP, Inputs, Base),
                              Tag + " fused", Base);
    expectMatrixMatchesOracle(Unfused, Inputs,
                              runOracle(Unfused, Inputs, Base),
                              Tag + " unfused", Base);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, VmSpanBorder,
                         ::testing::Values(BorderMode::Clamp,
                                           BorderMode::Mirror,
                                           BorderMode::Repeat,
                                           BorderMode::Constant),
                         [](const auto &Info) {
                           return std::string(borderModeName(Info.param));
                         });

/// Tail handling: spans of width 1, VmLaneWidth - 1, VmLaneWidth and
/// VmLaneWidth + 1 must each match the per-pixel bordered evaluator
/// exactly -- the widths that straddle the chunking boundary -- for a
/// fused chain and for a single-stage (unfused) kernel.
void expectTailWidthsMatchPerPixel(const StagedVmProgram &SP, uint16_t Root,
                                   const std::vector<Image> &Pool, int W,
                                   int H) {
  int Halo = SP.Reach[Root];
  int Y = H / 2;
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) *
                              VmLaneWidth);
  std::vector<float> PixelRegs(SP.NumRegs);

  for (int Width :
       {1, VmLaneWidth - 1, VmLaneWidth, VmLaneWidth + 1}) {
    int X0 = Halo, X1 = X0 + Width;
    ASSERT_LE(X1, W - Halo) << "test image too narrow";
    std::vector<float> Out(Width);
    runStagedVmSpan(SP, Root, Pool, Y, X0, X1, 0, LaneRegs.data(),
                    Out.data());
    for (int X = X0; X != X1; ++X)
      EXPECT_FLOAT_EQ(Out[X - X0], runStagedVm(SP, Root, Pool, X, Y, 0,
                                               PixelRegs.data()))
          << "width=" << Width << " x=" << X;
  }
}

TEST(VmSpan, StagedTailWidthsMatchPerPixel) {
  int W = VmLaneWidth + 16, H = 12;
  Program P = makeBlurChain(W, H, BorderMode::Mirror);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);

  std::vector<Image> Pool = makeImagePool(P);
  fillExternalInputs(P, Pool, 19);
  expectTailWidthsMatchPerPixel(
      SP, static_cast<uint16_t>(SP.Stages.size() - 1), Pool, W, H);
}

TEST(VmSpan, PlainKernelTailWidthsMatchPerPixel) {
  int W = VmLaneWidth + 16, H = 12;
  Program P = makeBlurChain(W, H, BorderMode::Clamp);
  // First blur alone: a plain 3x3 convolution as a single-stage program.
  StagedVmProgram SP = compileStagedProgram(P, {0}, {false});

  std::vector<Image> Pool = makeImagePool(P);
  fillExternalInputs(P, Pool, 23);
  expectTailWidthsMatchPerPixel(SP, 0, Pool, W, H);
}

/// Strided output: span mode must honor OutStride (the multi-channel
/// destination layout the tiled executor uses).
TEST(VmSpan, StridedOutputMatchesDense) {
  int W = VmLaneWidth + 16, H = 10;
  Program P = makeBlurChain(W, H, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);

  std::vector<Image> Pool = makeImagePool(P);
  fillExternalInputs(P, Pool, 31);

  int Halo = SP.Reach[Root];
  int X0 = Halo, X1 = W - Halo, Y = 4, Width = X1 - X0;
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) *
                              VmLaneWidth);

  std::vector<float> Dense(Width);
  runStagedVmSpan(SP, Root, Pool, Y, X0, X1, 0, LaneRegs.data(),
                  Dense.data());

  const int Stride = 3;
  std::vector<float> Strided(static_cast<size_t>(Width) * Stride, -1.0f);
  runStagedVmSpan(SP, Root, Pool, Y, X0, X1, 0, LaneRegs.data(),
                  Strided.data(), Stride);

  for (int I = 0; I != Width; ++I) {
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride], Dense[I])
        << "i=" << I;
    // The gaps stay untouched.
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride + 1], -1.0f);
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride + 2], -1.0f);
  }
}

/// Interior span widths around the chunk boundaries: one short of a
/// lane (the tail chain), exact multiples of a lane, and one to 63 past
/// them (a shifted last chunk that recomputes up to a lane of pixels).
const int LaneBoundarySpans[] = {63, 64, 65, 127, 128, 129, 191};

/// A whole-program fused chain whose launch exercises every vectorized
/// lane kernel: a 3x3 stencil (loads, multiply, add), then a point-ish
/// consumer reading the eliminated blur at +-1 offsets through stage
/// calls and mixing compare, select, min/max, abs, sqrt, div, neg, the
/// coordinates and a channel-pinned load. \p Channels is the channel
/// count of every image.
Program makeLaneKernelChain(int W, int H, int Channels) {
  Program P("lanechain");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", W, H, Channels);
  ImageId Blur = P.addImage("blur", W, H, Channels);
  ImageId Out = P.addImage("out", W, H, Channels);
  int Mask = P.addMask(binomial3Normalized());
  {
    Kernel K;
    K.Name = "blur";
    K.Kind = OperatorKind::Local;
    K.Inputs = {In};
    K.Output = Blur;
    K.Body = C.stencil(Mask, ReduceOp::Sum,
                       C.mul(C.maskValue(), C.stencilInput(0)));
    P.addKernel(std::move(K));
  }
  {
    Kernel K;
    K.Name = "mix";
    K.Kind = OperatorKind::Local;
    K.Inputs = {Blur, In};
    K.Output = Out;
    const Expr *L = C.inputAt(0, -1, 0);
    const Expr *R = C.inputAt(0, 1, 1);
    const Expr *Lo = C.binary(BinOp::Min, L, R);
    const Expr *Hi = C.binary(BinOp::Max, L, R);
    const Expr *Picked =
        C.select(C.binary(BinOp::CmpLT, L, R),
                 C.unary(UnOp::Sqrt, C.unary(UnOp::Abs, L)),
                 C.div(Lo, C.add(Hi, C.floatConst(1.0f))));
    const Expr *Coords = C.sub(C.mul(C.coordX(), C.floatConst(0.001f)),
                               C.mul(C.coordY(), C.floatConst(0.002f)));
    K.Body = C.add(C.add(Picked, C.unary(UnOp::Neg, Coords)),
                   C.binary(BinOp::CmpGT, C.inputAt(1, 0, -1, 0),
                            C.floatConst(0.5f)));
    P.addKernel(std::move(K));
  }
  return P;
}

/// The fused halo of makeLaneKernelChain: the blur's reach plus the
/// consumer's one-pixel offsets.
constexpr int LaneChainHalo = 2;

/// Engine matrix slice of the chunk-boundary sweep: span and jit x
/// interior/halo and overlapped x 1 and 3 workers.
std::vector<EngineConfig> laneBoundaryConfigs() {
  std::vector<EngineConfig> Configs;
  for (VmMode Mode : {VmMode::Span, VmMode::Jit})
    for (TilingStrategy Tiling :
         {TilingStrategy::InteriorHalo, TilingStrategy::Overlapped})
      for (int Threads : {1, 3})
        Configs.push_back({Mode, Tiling, OptMode::On, Threads});
  return Configs;
}

class VmSpanLaneBoundary
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// Every engine reproduces the AST oracle when the interior span is one
/// short of, exactly on, or past a lane boundary; once with the default
/// tiles, once with tiles narrower than the row, so one row's interior is
/// split across tiles and workers.
TEST_P(VmSpanLaneBoundary, EnginesMatchOracleAroundChunkBoundaries) {
  const auto [Span, Channels] = GetParam();
  const int W = Span + 2 * LaneChainHalo, H = 9;
  Program P = makeLaneKernelChain(W, H, Channels);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  ASSERT_EQ(FP.Kernels.size(), 1u);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  ASSERT_EQ(SP.Reach[FP.Kernels[0].stageIndex(FP.Kernels[0].Destinations[0])],
            LaneChainHalo);

  std::vector<Image> Inputs = makeImagePool(P);
  fillExternalInputs(P, Inputs, 5077 + Span);
  const std::vector<Image> Oracle = runOracle(FP, Inputs);
  const std::string Tag = "span=" + std::to_string(Span) +
                          " channels=" + std::to_string(Channels);

  ExecutionOptions Base;
  Base.TileHeight = 4;
  expectMatrixMatchesOracle(FP, Inputs, Oracle, Tag, Base,
                            laneBoundaryConfigs());
  // Two tiles per row, both interior spans wider than a lane once the
  // row is: 100 and W - 100 pixels.
  Base.TileWidth = 100;
  expectMatrixMatchesOracle(FP, Inputs, Oracle, Tag + " tile-width=100",
                            Base, laneBoundaryConfigs());
}

INSTANTIATE_TEST_SUITE_P(
    Spans, VmSpanLaneBoundary,
    ::testing::Combine(::testing::ValuesIn(LaneBoundarySpans),
                       ::testing::Values(1, 3)),
    [](const auto &Info) {
      return "span" + std::to_string(std::get<0>(Info.param)) + "_ch" +
             std::to_string(std::get<1>(Info.param));
    });

/// Direct span calls into a strided output (OutStride 3, the interleaved
/// layout of a 3-channel destination): runStagedVmSpan and runJitSpan
/// must both reproduce the per-pixel bordered evaluator at every pixel of
/// spans whose last chunk is shifted, and write nothing outside their
/// strided slots of [X0, X1).
TEST(VmSpan, ShiftedLastChunkIntoStridedOutputMatchesPerPixel) {
  const int W = 191 + 2 * LaneChainHalo, H = 7, Y = 3, Stride = 3;
  Program P = makeLaneKernelChain(W, H, 1);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = FP.Kernels[0].stageIndex(FP.Kernels[0].Destinations[0]);
  std::shared_ptr<const JitProgram> JP =
      compileJitProgram(SP, Root, P.images());
  ASSERT_NE(JP, nullptr);

  std::vector<Image> Pool = makeImagePool(P);
  fillExternalInputs(P, Pool, 61);
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) *
                              VmLaneWidth);
  std::vector<float> PixelRegs(SP.NumRegs);

  for (int Width : {65, 129, 191}) {
    const int X0 = LaneChainHalo, X1 = X0 + Width;
    for (bool Jit : {false, true}) {
      // One sentinel slot past the span catches an overrunning store.
      std::vector<float> Out(static_cast<size_t>(Width) * Stride + 1,
                             -1.0f);
      if (Jit)
        runJitSpan(*JP, Pool, Y, X0, X1, 0, LaneRegs.data(), Out.data(),
                   Stride);
      else
        runStagedVmSpan(SP, Root, Pool, Y, X0, X1, 0, LaneRegs.data(),
                        Out.data(), Stride);
      for (int X = X0; X != X1; ++X) {
        const size_t I = static_cast<size_t>(X - X0) * Stride;
        EXPECT_EQ(Out[I],
                  runStagedVm(SP, Root, Pool, X, Y, 0, PixelRegs.data()))
            << (Jit ? "jit" : "span") << " width=" << Width << " x=" << X;
        EXPECT_EQ(Out[I + 1], -1.0f);
        EXPECT_EQ(Out[I + 2], -1.0f);
      }
      EXPECT_EQ(Out.back(), -1.0f) << "store past the span";
    }
  }
}

/// KF_VM environment resolution. Runs in one process, so manipulate and
/// restore the variable carefully; explicit requests must win over it.
TEST(VmSpan, ResolveVmModeHonorsEnvironment) {
  const char *Saved = std::getenv("KF_VM");
  std::string SavedCopy = Saved ? Saved : "";

  ::unsetenv("KF_VM");
  EXPECT_EQ(resolveVmMode(VmMode::Auto), VmMode::Span);

  ::setenv("KF_VM", "jit", 1);
  EXPECT_EQ(resolveVmMode(VmMode::Auto), VmMode::Jit);

  ::setenv("KF_VM", "span", 1);
  EXPECT_EQ(resolveVmMode(VmMode::Auto), VmMode::Span);

  // Malformed values -- including the retired "scalar" mode -- fall back
  // to the default (with a once-per-process warning).
  ::setenv("KF_VM", "vectorized", 1);
  EXPECT_EQ(resolveVmMode(VmMode::Auto), VmMode::Span);
  ::setenv("KF_VM", "scalar", 1);
  EXPECT_EQ(resolveVmMode(VmMode::Auto), VmMode::Span);
  EXPECT_EQ(resolveVmMode(VmMode::Auto, /*JitAvailable=*/true),
            VmMode::Jit);

  // Explicit requests win regardless of the environment.
  ::setenv("KF_VM", "span", 1);
  EXPECT_EQ(resolveVmMode(VmMode::Jit), VmMode::Jit);
  ::setenv("KF_VM", "jit", 1);
  EXPECT_EQ(resolveVmMode(VmMode::Span), VmMode::Span);

  if (Saved)
    ::setenv("KF_VM", SavedCopy.c_str(), 1);
  else
    ::unsetenv("KF_VM");
}

TEST(VmSpan, ModeNames) {
  EXPECT_STREQ(vmModeName(VmMode::Auto), "auto");
  EXPECT_STREQ(vmModeName(VmMode::Span), "span");
  EXPECT_STREQ(vmModeName(VmMode::Jit), "jit");
}

} // namespace
