//===- transform/FusedKernel.h - Fused kernel representation ----*- C++ -*-===//
///
/// \file
/// The result of applying a fusion partition to a program (Section IV of
/// the paper): each partition block becomes one FusedKernel whose stages
/// are the original kernels in topological order, the last stage being the
/// destination. Every non-destination stage's intermediate image is
/// eliminated from global memory; its placement records how:
///
///   Register          the value lives in a register of the same thread
///                     (point-based fusion, Eq. 5),
///   RegisterRecompute the producer is re-evaluated per window element of
///                     its local consumer (optimized point-to-local
///                     fusion, Eqs. 7-8),
///   SharedTile        the producer is staged into a shared-memory tile
///                     that the local consumer reads (local-to-local
///                     fusion, Eqs. 9-11; also how the *basic* fusion of
///                     prior work [12] implements point-to-local).
///
//===----------------------------------------------------------------------===//

#ifndef KF_TRANSFORM_FUSEDKERNEL_H
#define KF_TRANSFORM_FUSEDKERNEL_H

#include "fusion/Partition.h"
#include "ir/Program.h"

#include <string>
#include <vector>

namespace kf {

/// Where a stage's output lives inside the fused kernel.
enum class Placement : uint8_t {
  Global,            ///< Destination stage: written to global memory.
  Register,          ///< Point-consumed: register of the computing thread.
  RegisterRecompute, ///< Window-consumed: recomputed per window element.
  SharedTile,        ///< Window-consumed: staged in a shared-memory tile.
};

/// Printable placement name.
const char *placementName(Placement P);

/// Which transform rules to apply; see FusedKernel.h file comment.
enum class FusionStyle : uint8_t {
  Optimized, ///< This paper: recompute point producers into registers.
  Basic,     ///< Prior work [12]: stage window-consumed data in shared mem.
};

/// One original kernel inside a fused kernel.
struct FusedStage {
  KernelId Kernel = 0;
  Placement OutputPlacement = Placement::Global;

  /// Times this stage's body is evaluated per output pixel of the fused
  /// kernel (1 for the destination; window size products for recomputed
  /// chains; amortized tile-fill overhead for shared tiles).
  double Multiplicity = 1.0;

  /// Window width of this stage grown by its in-block producers (Eq. 9);
  /// equals the plain window width for stages without local ancestors.
  int EffectiveWindowWidth = 1;

  /// Halo this stage's output carries for in-block consumers.
  int CarriedHalo = 0;
};

/// A partition block materialized as one launchable kernel.
struct FusedKernel {
  std::string Name;               ///< Joined stage names ("sx+gx").
  std::vector<FusedStage> Stages; ///< Topological order.
  /// Primary destination (the last stage). Under the paper's rules it is
  /// the block's only sink; the multi-destination extension may add more
  /// (see LegalityOptions::AllowMultipleDestinations).
  KernelId Destination = 0;
  /// All destinations, ascending kernel id; singleton under the paper's
  /// rules.
  std::vector<KernelId> Destinations;

  const FusedStage &destinationStage() const { return Stages.back(); }

  /// Stage holding kernel \p Id, or nullptr.
  const FusedStage *findStage(KernelId Id) const;

  /// Index in Stages (and so in the compiled staged program) of the stage
  /// holding kernel \p Id, which must be one of this kernel's stages: the
  /// root stage of the launch computing destination \p Id.
  uint16_t stageIndex(KernelId Id) const;

  /// True if \p Id is one of this kernel's destinations.
  bool isDestination(KernelId Id) const;

  bool isSingleton() const { return Stages.size() == 1; }
};

/// The fused program: one kernel per partition block, in launch order.
struct FusedProgram {
  const Program *Source = nullptr;
  FusionStyle Style = FusionStyle::Optimized;
  Partition SourcePartition;
  std::vector<FusedKernel> Kernels;

  /// Fused kernel producing image \p Id, or nullptr.
  const FusedKernel *producerOf(ImageId Id) const;

  /// Number of kernel launches (one per fused kernel).
  unsigned numLaunches() const {
    return static_cast<unsigned>(Kernels.size());
  }
};

} // namespace kf

#endif // KF_TRANSFORM_FUSEDKERNEL_H
