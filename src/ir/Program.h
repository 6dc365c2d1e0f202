//===- ir/Program.h - Kernel pipelines as DAGs over images ------*- C++ -*-===//
///
/// \file
/// A Program is the DSL-level view of an image-processing application: a
/// set of images, masks, and kernels. Kernels and the images they produce/
/// consume induce the dependence DAG G = (V, E) of Section II that the
/// fusion engine partitions.
///
//===----------------------------------------------------------------------===//

#ifndef KF_IR_PROGRAM_H
#define KF_IR_PROGRAM_H

#include "graph/Digraph.h"
#include "ir/Kernel.h"

#include <optional>

namespace kf {

/// Shape metadata of a program image.
struct ImageInfo {
  std::string Name;
  int Width = 0;
  int Height = 0;
  int Channels = 1;

  /// IS(i) of the benefit model: the number of pixels.
  long long iterationSpace() const {
    return static_cast<long long>(Width) * Height;
  }
};

/// An image-processing pipeline. Images and masks are added first; kernels
/// reference them by id. The expression arena lives in the program so that
/// fused programs can extend it.
class Program {
public:
  explicit Program(std::string Name) : Name(std::move(Name)) {}

  // Programs own an expression arena; moving is fine, copying is not.
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;

  const std::string &name() const { return Name; }

  ImageId addImage(std::string ImageName, int Width, int Height,
                   int Channels = 1);
  int addMask(Mask MaskIn);
  KernelId addKernel(Kernel KernelIn);

  unsigned numImages() const { return static_cast<unsigned>(Images.size()); }
  unsigned numMasks() const { return static_cast<unsigned>(Masks.size()); }
  unsigned numKernels() const {
    return static_cast<unsigned>(Kernels.size());
  }

  const ImageInfo &image(ImageId Id) const;
  /// The image table, indexed by ImageId: the pool shapes of a run.
  const std::vector<ImageInfo> &images() const { return Images; }
  const Mask &mask(int Idx) const;
  const Kernel &kernel(KernelId Id) const;
  Kernel &kernel(KernelId Id);
  const std::vector<Kernel> &kernels() const { return Kernels; }

  ExprContext &context() { return Ctx; }
  const ExprContext &context() const { return Ctx; }

  /// Kernel producing \p Id, if any. Verified programs have at most one.
  std::optional<KernelId> producerOf(ImageId Id) const;

  /// Kernels reading \p Id, in kernel order.
  std::vector<KernelId> consumersOf(ImageId Id) const;

  /// Images no kernel produces (pipeline inputs).
  std::vector<ImageId> externalInputs() const;

  /// Images produced but never consumed (pipeline outputs).
  std::vector<ImageId> terminalOutputs() const;

  /// Builds the kernel dependence DAG: node n mirrors kernel n; one edge
  /// per (producer, consumer) pair per communicated image. Edge weights
  /// are zero; the benefit model assigns them.
  Digraph buildKernelDag() const;

  /// The image communicated along DAG edge (\p Producer, \p Consumer):
  /// the producer's output when the consumer reads it.
  std::optional<ImageId> communicatedImage(KernelId Producer,
                                           KernelId Consumer) const;

  /// Content hash of the program IR: images (names and shapes), masks
  /// (extents and coefficient bits), and kernels (header fields and the
  /// full body expression tree, float constants hashed by bit pattern).
  /// Two programs built independently -- e.g. parsed from the same .kfp
  /// text -- hash equally iff they are structurally identical; changing
  /// any single constant in any kernel body changes the hash. Used as the
  /// plan-cache key of the serving layer (sim/Session.h).
  uint64_t structuralHash() const;

private:
  std::string Name;
  std::vector<ImageInfo> Images;
  std::vector<Mask> Masks;
  std::vector<Kernel> Kernels;
  ExprContext Ctx;
};

} // namespace kf

#endif // KF_IR_PROGRAM_H
