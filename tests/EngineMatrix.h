//===- tests/EngineMatrix.h - Shared engine-vs-oracle differential harness -===//
//
// The one differential harness the engine suites share. The repository
// has two execution semantics: the AST walker (runFused / runUnfused, the
// oracle) and the staged bytecode VM. Every configuration of the VM --
// interior engine (span, jit) x tiling strategy (interior/halo,
// overlapped) x bytecode optimizer (on, off) x worker threads (1, 3,
// hardware) -- must reproduce the oracle bit for bit, for fused programs
// and for unfused ones (unfusedProgram(P): one single-stage launch per
// kernel).
//
//===----------------------------------------------------------------------===//

#ifndef KF_TESTS_ENGINEMATRIX_H
#define KF_TESTS_ENGINEMATRIX_H

#include "fusion/Partition.h"
#include "sim/Executor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace kf::test {

/// One point of the engine matrix.
struct EngineConfig {
  VmMode Mode = VmMode::Span;
  TilingStrategy Tiling = TilingStrategy::InteriorHalo;
  OptMode Opt = OptMode::On;
  int Threads = 1;

  /// \p Base with this configuration's four axes applied.
  ExecutionOptions apply(ExecutionOptions Base) const;
  /// "vm=span tiling=interior opt=on threads=3".
  std::string label() const;
};

/// Worker-thread counts every differential sweeps: serial, an uneven
/// count, and whatever the hardware reports (deduplicated).
std::vector<int> threadSweep();

/// The full matrix: {span, jit} x {interior, overlapped} x {on, off} x
/// threadSweep().
std::vector<EngineConfig> engineMatrix();

/// The opt x threads slice of the matrix for one engine and strategy
/// (suites parameterized over engine and tiling themselves).
std::vector<EngineConfig> engineMatrix(VmMode Mode, TilingStrategy Tiling);

/// Fuses the whole program into one block (forces fusion regardless of
/// the benefit model).
Partition wholeProgramPartition(const Program &P);

/// Fills every external input of \p P in \p Pool with seeded random data
/// in [Lo, Hi].
void fillExternalInputs(const Program &P, std::vector<Image> &Pool,
                        uint64_t Seed, float Lo = 0.0f, float Hi = 1.0f);

/// Every image either pool holds must be present in both and equal bit
/// for bit.
void expectPoolsIdentical(const Program &P, const std::vector<Image> &Got,
                          const std::vector<Image> &Want,
                          const std::string &Tag);

/// The AST oracle of \p FP on the external inputs of \p Inputs: runFused
/// under \p Base (index exchange and thread count honoured). Writes the
/// destination outputs; for unfusedProgram(P) that is every kernel
/// output, exactly what runUnfused writes.
std::vector<Image> runOracle(const FusedProgram &FP,
                             const std::vector<Image> &Inputs,
                             const ExecutionOptions &Base = {});

/// Runs \p FP on the external inputs of \p Inputs once per configuration
/// of \p Configs, each through a fresh PipelineSession under
/// Config.apply(\p Base) and through the one-shot runFusedVm driver, and
/// expects every destination output to equal \p Oracle bit for bit.
void expectMatrixMatchesOracle(
    const FusedProgram &FP, const std::vector<Image> &Inputs,
    const std::vector<Image> &Oracle, const std::string &Tag,
    const ExecutionOptions &Base = {},
    const std::vector<EngineConfig> &Configs = engineMatrix());

} // namespace kf::test

#endif // KF_TESTS_ENGINEMATRIX_H
