//===- tests/EngineMatrix.cpp -----------------------------------------------===//

#include "EngineMatrix.h"

#include "image/Compare.h"
#include "image/Generators.h"
#include "sim/Session.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace kf;
using namespace kf::test;

ExecutionOptions EngineConfig::apply(ExecutionOptions Base) const {
  Base.Mode = Mode;
  Base.Tiling = Tiling;
  Base.Opt = Opt;
  Base.Threads = Threads;
  return Base;
}

std::string EngineConfig::label() const {
  return std::string("vm=") + vmModeName(Mode) +
         " tiling=" + tilingStrategyName(Tiling) +
         " opt=" + optModeName(Opt) + " threads=" + std::to_string(Threads);
}

std::vector<int> kf::test::threadSweep() {
  int Hardware =
      static_cast<int>(std::max(std::thread::hardware_concurrency(), 1u));
  std::vector<int> Counts{1, 3};
  if (Hardware != 1 && Hardware != 3)
    Counts.push_back(Hardware);
  return Counts;
}

std::vector<EngineConfig> kf::test::engineMatrix(VmMode Mode,
                                                 TilingStrategy Tiling) {
  std::vector<EngineConfig> Configs;
  for (OptMode Opt : {OptMode::On, OptMode::Off})
    for (int Threads : threadSweep())
      Configs.push_back({Mode, Tiling, Opt, Threads});
  return Configs;
}

std::vector<EngineConfig> kf::test::engineMatrix() {
  std::vector<EngineConfig> Configs;
  for (VmMode Mode : {VmMode::Span, VmMode::Jit})
    for (TilingStrategy Tiling :
         {TilingStrategy::InteriorHalo, TilingStrategy::Overlapped}) {
      std::vector<EngineConfig> Slice = engineMatrix(Mode, Tiling);
      Configs.insert(Configs.end(), Slice.begin(), Slice.end());
    }
  return Configs;
}

Partition kf::test::wholeProgramPartition(const Program &P) {
  Partition S;
  PartitionBlock Block;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    Block.Kernels.push_back(Id);
  S.Blocks.push_back(std::move(Block));
  return S;
}

void kf::test::fillExternalInputs(const Program &P, std::vector<Image> &Pool,
                                  uint64_t Seed, float Lo, float Hi) {
  Rng Gen(Seed);
  for (ImageId Id : P.externalInputs()) {
    const ImageInfo &Info = P.image(Id);
    Pool[Id] =
        makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen, Lo, Hi);
  }
}

void kf::test::expectPoolsIdentical(const Program &P,
                                    const std::vector<Image> &Got,
                                    const std::vector<Image> &Want,
                                    const std::string &Tag) {
  for (ImageId Id = 0; Id != P.numImages(); ++Id) {
    EXPECT_EQ(Got[Id].empty(), Want[Id].empty())
        << Tag << " image " << P.image(Id).Name;
    if (Got[Id].empty() || Want[Id].empty())
      continue;
    EXPECT_DOUBLE_EQ(maxAbsDifference(Got[Id], Want[Id]), 0.0)
        << Tag << " image " << P.image(Id).Name;
  }
}

std::vector<Image> kf::test::runOracle(const FusedProgram &FP,
                                       const std::vector<Image> &Inputs,
                                       const ExecutionOptions &Base) {
  const Program &P = *FP.Source;
  std::vector<Image> Pool = makeImagePool(P);
  for (ImageId In : P.externalInputs())
    Pool[In] = Inputs[In];
  runFused(FP, Pool, Base);
  return Pool;
}

void kf::test::expectMatrixMatchesOracle(
    const FusedProgram &FP, const std::vector<Image> &Inputs,
    const std::vector<Image> &Oracle, const std::string &Tag,
    const ExecutionOptions &Base, const std::vector<EngineConfig> &Configs) {
  const Program &P = *FP.Source;
  auto expectDestinationsMatch = [&](const std::vector<Image> &Got,
                                     const std::string &Where) {
    for (const FusedKernel &FK : FP.Kernels)
      for (KernelId Dest : FK.Destinations) {
        ImageId Out = P.kernel(Dest).Output;
        ASSERT_FALSE(Oracle[Out].empty())
            << Tag << ": oracle lacks " << P.image(Out).Name;
        EXPECT_DOUBLE_EQ(maxAbsDifference(Got[Out], Oracle[Out]), 0.0)
            << Tag << " " << Where << " output " << P.image(Out).Name;
      }
  };
  for (const EngineConfig &Config : Configs) {
    const ExecutionOptions Options = Config.apply(Base);
    PlanCache Cache;
    PipelineSession Session(FP, Options, &Cache);
    std::vector<Image> Frame = Session.acquireFrame();
    for (ImageId In : P.externalInputs())
      Frame[In] = Inputs[In];
    Session.runFrame(Frame);
    expectDestinationsMatch(Frame, Config.label() + " session");

    // The one-shot driver: a private session per call.
    std::vector<Image> Pool = makeImagePool(P);
    for (ImageId In : P.externalInputs())
      Pool[In] = Inputs[In];
    runFusedVm(FP, Pool, Options);
    expectDestinationsMatch(Pool, Config.label() + " runFusedVm");
  }
}
