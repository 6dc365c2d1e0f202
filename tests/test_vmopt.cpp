//===- tests/test_vmopt.cpp - Fact-gated bytecode optimizer ---------------------===//
//
// The interval-fact-gated bytecode optimizer (ir/VmOptimizer.h): unit
// tests of the bit-exact Min/Max/Select decision predicates, the
// differential suite proving optimized and unoptimized session plans
// bit-identical to the AST oracle across every registry pipeline x VM
// mode x tiling strategy x thread count (the shared harness of
// tests/EngineMatrix.h), the validator re-pass over optimized streams, the
// KF_OPT / OptMode::Off escape hatch, the removed-instruction stats, and
// the KF-B09 mutation test for the JIT refusal gate.
//
//===----------------------------------------------------------------------===//

#include "EngineMatrix.h"
#include "SourceTree.h"

#include "analysis/BytecodeValidator.h"
#include "analysis/IntervalAnalysis.h"
#include "frontend/Parser.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "jit/JitProgram.h"
#include "pipelines/Pipelines.h"
#include "sim/Session.h"
#include "support/Random.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <cstdlib>
#include <functional>

using namespace kf;
using namespace kf::test;

namespace {

//===--------------------------------------------------------------------===//
// Decision predicates
//===--------------------------------------------------------------------===//

RegInterval iv(float Lo, float Hi, bool MayNaN = false) {
  return RegInterval::range(Lo, Hi, MayNaN);
}

TEST(ClampDecisions, MinDecides) {
  // min(A, B) = (B < A) ? B : A -- returns A when either side is NaN.
  EXPECT_EQ(decideMin(iv(0, 1), iv(2, 3)), ClampDecision::TakeA);
  EXPECT_EQ(decideMin(iv(0, 1), iv(1, 2)), ClampDecision::TakeA); // ties -> A
  EXPECT_EQ(decideMin(iv(2, 3), iv(0, 1)), ClampDecision::TakeB);
  EXPECT_EQ(decideMin(iv(0, 2), iv(1, 3)), ClampDecision::Keep);
  // NaN possibilities: TakeA stays sound (NaN A is returned either way);
  // TakeB is not (a NaN on either side makes the result A).
  EXPECT_EQ(decideMin(iv(0, 1, true), iv(2, 3)), ClampDecision::TakeA);
  EXPECT_EQ(decideMin(iv(2, 3, true), iv(0, 1)), ClampDecision::Keep);
  EXPECT_EQ(decideMin(iv(2, 3), iv(0, 1, true)), ClampDecision::Keep);
  // An always-NaN A is returned by the exact semantics.
  RegInterval AlwaysNaN;
  AlwaysNaN.MayNaN = true;
  EXPECT_EQ(decideMin(AlwaysNaN, iv(0, 1)), ClampDecision::TakeA);
  // Bottom facts decide nothing.
  EXPECT_EQ(decideMin(RegInterval(), iv(0, 1)), ClampDecision::Keep);
  EXPECT_EQ(decideMin(iv(0, 1), RegInterval()), ClampDecision::Keep);
}

TEST(ClampDecisions, MaxDecides) {
  // max(A, B) = (A < B) ? B : A.
  EXPECT_EQ(decideMax(iv(2, 3), iv(0, 1)), ClampDecision::TakeA);
  EXPECT_EQ(decideMax(iv(1, 2), iv(0, 1)), ClampDecision::TakeA); // ties -> A
  EXPECT_EQ(decideMax(iv(0, 1), iv(2, 3)), ClampDecision::TakeB);
  EXPECT_EQ(decideMax(iv(0, 2), iv(1, 3)), ClampDecision::Keep);
  EXPECT_EQ(decideMax(iv(2, 3, true), iv(0, 1)), ClampDecision::TakeA);
  EXPECT_EQ(decideMax(iv(0, 1, true), iv(2, 3)), ClampDecision::Keep);
  EXPECT_EQ(decideMax(iv(0, 1), iv(2, 3, true)), ClampDecision::Keep);
}

TEST(ClampDecisions, SignedZeroKeepsMinMaxUndecided) {
  // [-0, +0] vs [0, 0]: both compare equal, so the comparison never
  // fires and the exact semantics return A -- equal bounds decide TakeA,
  // and that is bit-identical even for mixed zero signs because
  // std::min/std::max return A on ties.
  float NegZero = -0.0f;
  EXPECT_EQ(decideMin(iv(NegZero, 0), iv(0, 0)), ClampDecision::TakeA);
  EXPECT_EQ(decideMax(iv(NegZero, 0), iv(0, 0)), ClampDecision::TakeA);
}

TEST(ClampDecisions, SelectDecides) {
  // Sel != 0 ? A : B; NaN != 0 is true, -0 == 0 is false.
  EXPECT_EQ(decideSelect(iv(1, 2)), ClampDecision::TakeA);
  EXPECT_EQ(decideSelect(iv(-2, -1)), ClampDecision::TakeA);
  EXPECT_EQ(decideSelect(iv(0, 0)), ClampDecision::TakeB);
  EXPECT_EQ(decideSelect(iv(-0.0f, 0.0f)), ClampDecision::TakeB);
  EXPECT_EQ(decideSelect(iv(0, 1)), ClampDecision::Keep);
  EXPECT_EQ(decideSelect(iv(-1, 1)), ClampDecision::Keep);
  // A possibly-NaN zero cannot take B (NaN selects A) ...
  EXPECT_EQ(decideSelect(iv(0, 0, true)), ClampDecision::Keep);
  // ... but a possibly-NaN nonzero still takes A.
  EXPECT_EQ(decideSelect(iv(1, 2, true)), ClampDecision::TakeA);
  // An always-NaN condition takes A.
  RegInterval AlwaysNaN;
  AlwaysNaN.MayNaN = true;
  EXPECT_EQ(decideSelect(AlwaysNaN), ClampDecision::TakeA);
  // Bottom decides nothing.
  EXPECT_EQ(decideSelect(RegInterval()), ClampDecision::Keep);
}

//===--------------------------------------------------------------------===//
// Shared fixtures
//===--------------------------------------------------------------------===//

HardwareModel paperModel() {
  HardwareModel HW;
  HW.SharedMemThreshold = 2.0;
  return HW;
}

/// A registry pipeline fused at test size; the Program lives behind a
/// stable pointer because FusedProgram::Source refers into it.
struct BuiltPipeline {
  std::unique_ptr<Program> P;
  FusedProgram FP;
};

BuiltPipeline fuseRegistry(const PipelineSpec &Spec) {
  BuiltPipeline B;
  B.P = std::make_unique<Program>(Spec.Builder(96, 64));
  MinCutFusionResult Result = runMinCutFusion(*B.P, paperModel());
  B.FP = fuseProgram(*B.P, Result.Blocks, FusionStyle::Optimized);
  return B;
}

/// Fills the plan's external inputs with seeded random data in the
/// declared [0, 1] contract.
void fillInputs(const CompiledPlan &Plan, std::vector<Image> &Frame,
                uint64_t Seed) {
  Rng Gen(Seed);
  for (ImageId In : Plan.ExternalInputs) {
    const ImageInfo &Info = Plan.Shapes[In];
    Frame[In] = makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen,
                                0.0f, 1.0f);
  }
}

/// Runs one frame of \p FP under \p Options and returns the terminal
/// outputs.
std::vector<Image> runOneFrame(const FusedProgram &FP, const Program &P,
                               const ExecutionOptions &Options,
                               PlanCache &Cache, uint64_t Seed) {
  PipelineSession Session(FP, Options, &Cache);
  std::vector<Image> Frame = Session.acquireFrame();
  fillInputs(*Session.plan(), Frame, Seed);
  Session.runFrame(Frame);
  std::vector<Image> Outputs;
  for (ImageId Out : P.terminalOutputs())
    Outputs.push_back(Frame[Out]);
  return Outputs;
}

//===--------------------------------------------------------------------===//
// Differential: optimized == unoptimized, bit for bit
//===--------------------------------------------------------------------===//

TEST(VmOptDifferential, RegistryBitIdenticalAcrossModesAndTilings) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    SCOPED_TRACE(Spec.Name);
    BuiltPipeline B = fuseRegistry(Spec);
    std::vector<Image> Inputs = makeImagePool(*B.P);
    fillExternalInputs(*B.P, Inputs,
                       0xD1FF ^ std::hash<std::string>()(Spec.Name));
    expectMatrixMatchesOracle(B.FP, Inputs, runOracle(B.FP, Inputs),
                              Spec.Name);
  }
}

TEST(VmOptDifferential, OptimizedStreamsRevalidate) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    SCOPED_TRACE(Spec.Name);
    BuiltPipeline B = fuseRegistry(Spec);
    const FusedProgram &FP = B.FP;
    ExecutionOptions Options;
    Options.Opt = OptMode::On;
    std::shared_ptr<const CompiledPlan> Plan = compilePlan(FP, Options);
    ASSERT_TRUE(Plan != nullptr);
    for (const CompiledLaunch &Launch : Plan->Launches) {
      DiagnosticEngine DE;
      validateStagedProgram(Launch.Code, Launch.Root, Plan->Shapes, DE);
      EXPECT_EQ(DE.errorCount(), 0u)
          << Launch.Name << ":\n" << DE.renderText();
    }
  }
}

TEST(VmOptDifferential, OptimizerShrinksOrKeepsEveryRegistryLaunch) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    BuiltPipeline B = fuseRegistry(Spec);
    const FusedProgram &FP = B.FP;
    ExecutionOptions On;
    On.Opt = OptMode::On;
    ExecutionOptions Off;
    Off.Opt = OptMode::Off;
    std::shared_ptr<const CompiledPlan> Optimized = compilePlan(FP, On);
    std::shared_ptr<const CompiledPlan> Baseline = compilePlan(FP, Off);
    ASSERT_EQ(Optimized->Launches.size(), Baseline->Launches.size());
    for (size_t I = 0; I != Optimized->Launches.size(); ++I) {
      size_t OptInsts = 0, BaseInsts = 0;
      for (const VmStage &S : Optimized->Launches[I].Code.Stages)
        OptInsts += S.Code.Insts.size();
      for (const VmStage &S : Baseline->Launches[I].Code.Stages)
        BaseInsts += S.Code.Insts.size();
      EXPECT_LE(OptInsts, BaseInsts) << Spec.Name;
      EXPECT_EQ(Baseline->Launches[I].OptStats.removedInsts(), 0u);
    }
  }
}

//===--------------------------------------------------------------------===//
// Escape hatch
//===--------------------------------------------------------------------===//

/// Saves and restores KF_OPT around a test.
struct ScopedKfOpt {
  ScopedKfOpt(const char *Value) {
    const char *Saved = std::getenv("KF_OPT");
    Had = Saved != nullptr;
    Old = Saved ? Saved : "";
    if (Value)
      ::setenv("KF_OPT", Value, 1);
    else
      ::unsetenv("KF_OPT");
  }
  ~ScopedKfOpt() {
    if (Had)
      ::setenv("KF_OPT", Old.c_str(), 1);
    else
      ::unsetenv("KF_OPT");
  }
  bool Had = false;
  std::string Old;
};

TEST(OptMode, ResolutionAndEnvOverride) {
  {
    ScopedKfOpt Env(nullptr);
    EXPECT_EQ(resolveOptMode(OptMode::Auto), OptMode::On);
    EXPECT_EQ(resolveOptMode(OptMode::On), OptMode::On);
    EXPECT_EQ(resolveOptMode(OptMode::Off), OptMode::Off);
  }
  {
    ScopedKfOpt Env("off");
    EXPECT_EQ(resolveOptMode(OptMode::Auto), OptMode::Off);
    // An explicit request beats the environment.
    EXPECT_EQ(resolveOptMode(OptMode::On), OptMode::On);
  }
  {
    ScopedKfOpt Env("on");
    EXPECT_EQ(resolveOptMode(OptMode::Auto), OptMode::On);
    EXPECT_EQ(resolveOptMode(OptMode::Off), OptMode::Off);
  }
  EXPECT_STREQ(optModeName(OptMode::Auto), "auto");
  EXPECT_STREQ(optModeName(OptMode::On), "on");
  EXPECT_STREQ(optModeName(OptMode::Off), "off");
}

TEST(OptMode, KfOptOffDisablesTheRewriteUnderAuto) {
  ScopedKfOpt Env("off");
  BuiltPipeline B = fuseRegistry(*findPipeline("harris"));
  ExecutionOptions Options; // Opt = Auto resolves via KF_OPT
  std::shared_ptr<const CompiledPlan> Plan = compilePlan(B.FP, Options);
  for (const CompiledLaunch &Launch : Plan->Launches)
    EXPECT_EQ(Launch.OptStats.removedInsts(), 0u) << Launch.Name;
}

//===--------------------------------------------------------------------===//
// Stats on known-reducible programs
//===--------------------------------------------------------------------===//

/// Compiles a fixture pipeline into an Opt=On plan.
std::shared_ptr<const CompiledPlan> planForFixture(const std::string &File,
                                                   FusedProgram &FP,
                                                   ParseResult &Parsed) {
  Parsed =
      parsePipelineFile(test::sourcePath("tests/fixtures/analysis/" + File));
  EXPECT_TRUE(Parsed.Prog != nullptr)
      << (Parsed.Errors.empty() ? "" : Parsed.Errors.front());
  if (!Parsed.Prog)
    return nullptr;
  MinCutFusionResult Result = runMinCutFusion(*Parsed.Prog, paperModel());
  FP = fuseProgram(*Parsed.Prog, Result.Blocks, FusionStyle::Optimized);
  ExecutionOptions Options;
  Options.Opt = OptMode::On;
  return compilePlan(FP, Options);
}

TEST(VmOptStatsCounters, DecidedSelectIsRemoved) {
  FusedProgram FP;
  ParseResult Parsed;
  std::shared_ptr<const CompiledPlan> Plan =
      planForFixture("decided_select.kfp", FP, Parsed);
  ASSERT_TRUE(Plan != nullptr);
  unsigned Selects = 0, Removed = 0;
  for (const CompiledLaunch &Launch : Plan->Launches) {
    Selects += Launch.OptStats.SelectsDecided;
    Removed += Launch.OptStats.removedInsts();
  }
  EXPECT_GE(Selects, 1u);
  EXPECT_GE(Removed, 1u);
}

TEST(VmOptStatsCounters, NoopClampIsRemoved) {
  FusedProgram FP;
  ParseResult Parsed;
  std::shared_ptr<const CompiledPlan> Plan =
      planForFixture("noop_clamp.kfp", FP, Parsed);
  ASSERT_TRUE(Plan != nullptr);
  unsigned Clamps = 0, Removed = 0;
  for (const CompiledLaunch &Launch : Plan->Launches) {
    Clamps += Launch.OptStats.ClampsRemoved;
    Removed += Launch.OptStats.removedInsts();
  }
  EXPECT_GE(Clamps, 1u);
  EXPECT_GE(Removed, 1u);
  // And the rewritten plan still computes the same frame.
  ASSERT_TRUE(Parsed.Prog != nullptr);
  PlanCache Cache(8);
  ExecutionOptions On;
  On.Opt = OptMode::On;
  ExecutionOptions Off;
  Off.Opt = OptMode::Off;
  std::vector<Image> Want = runOneFrame(FP, *Parsed.Prog, Off, Cache, 99);
  std::vector<Image> Got = runOneFrame(FP, *Parsed.Prog, On, Cache, 99);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I != Want.size(); ++I)
    EXPECT_DOUBLE_EQ(maxAbsDifference(Got[I], Want[I]), 0.0);
}

//===--------------------------------------------------------------------===//
// KF-B09 JIT refusal gate (mutation test)
//===--------------------------------------------------------------------===//

TEST(JitRefusal, NonFiniteConstIsKfB09AndJitRefuses) {
  BuiltPipeline B = fuseRegistry(*findPipeline("harris"));
  ExecutionOptions Options;
  Options.Opt = OptMode::Off;
  std::shared_ptr<const CompiledPlan> Plan = compilePlan(B.FP, Options);
  ASSERT_FALSE(Plan->Launches.empty());

  // Mutate one Const immediate to infinity: the validator must flag
  // KF-B09 (a warning, not an error) and the JIT gate must refuse even
  // though no *error* was reported.
  StagedVmProgram Mutated;
  uint16_t Root = 0;
  int Halo = 0;
  ImageId Output = 0;
  bool Found = false;
  for (const CompiledLaunch &Launch : Plan->Launches) {
    for (const VmStage &Stage : Launch.Code.Stages)
      for (const VmInst &Inst : Stage.Code.Insts)
        if (Inst.Op == VmOp::Const) {
          Mutated = Launch.Code;
          Root = Launch.Root;
          Halo = Launch.Halo;
          Output = Launch.Output;
          Found = true;
          break;
        }
    if (Found)
      break;
  }
  ASSERT_TRUE(Found) << "no Const instruction in any harris launch";
  for (VmStage &Stage : Mutated.Stages)
    for (VmInst &Inst : Stage.Code.Insts)
      if (Inst.Op == VmOp::Const)
        Inst.Imm = INFINITY;

  DiagnosticEngine DE;
  validateStagedProgram(Mutated, Root, Plan->Shapes, DE);
  EXPECT_TRUE(DE.hasCode("KF-B09")) << DE.renderText();
  EXPECT_EQ(DE.errorCount(), 0u) << DE.renderText();
  EXPECT_EQ(compileJitProgram(Mutated, Root, Plan->Shapes), nullptr);

  // The refused launch still runs -- a Jit request carrying the null
  // artifact runs the span interpreter (the executor compiles nothing),
  // bit-identical to per-pixel bordered evaluation of the mutated program.
  std::vector<Image> Pool(Plan->Shapes.size());
  fillInputs(*Plan, Pool, 1234);
  for (size_t I = 0; I != Pool.size(); ++I)
    if (Pool[I].empty())
      Pool[I] = Image(Plan->Shapes[I].Width, Plan->Shapes[I].Height,
                      Plan->Shapes[I].Channels);
  const ImageInfo &Info = Plan->Shapes[Output];
  ThreadPool TP(2);
  VmScratch Scratch;

  Image Want(Info.Width, Info.Height, Info.Channels);
  std::vector<float> Regs(Mutated.NumRegs);
  for (int Y = 0; Y != Info.Height; ++Y)
    for (int X = 0; X != Info.Width; ++X)
      for (int C = 0; C != Info.Channels; ++C)
        Want.at(X, Y, C) =
            runStagedVm(Mutated, Root, Pool, X, Y, C, Regs.data());

  Image JitOut(Info.Width, Info.Height, Info.Channels);
  ExecutionOptions Jit;
  Jit.Mode = VmMode::Jit;
  LaunchTiming Timing;
  runCompiledLaunch(Mutated, Root, Halo, Pool, JitOut, Jit, TP, Scratch,
                    &Timing, /*Jit=*/nullptr);
  EXPECT_NE(Timing.Mode, VmMode::Jit); // the gate refused; span ran
  EXPECT_EQ(countDifferingSamples(JitOut, Want, 0.0), 0);
}

} // namespace
