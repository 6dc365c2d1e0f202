//===- perfbench/src/Generator.h - Seeded pipeline generator ----*- C++ -*-===//
///
/// \file
/// The `build` workload's input: a seeded sequence of distinct pipelines,
/// each emitted as the text a client would send -- a `.lz` builder script
/// (even indices) or a `.kfp` program (odd indices) -- plus a small
/// evaluator that computes the pipeline's output from the generator's own
/// op list, independently of the parsers and the library.
///
/// Parameters (documented in perfbench/README.md):
///   - 1 or 2 input images, by index (index / 2 % 2);
///   - 5 + index % 8 recorded ops, plus the folds that join dangling
///     values into the single output;
///   - op mix: 3x3 convolution 30% (binomial, box, Sobel x/y, a seeded
///     positive mask), 3x3 window max 10%, binary point op 40% (add, sub,
///     mul, min, max), unary point op 20% (abs, scale, offset);
///   - stencil reach at most MaxReach along any path, so the interior
///     recompute that local-to-local fusion buys stays bounded;
///   - value magnitudes at most 16 (inputs lie in [0, 1]).
///
//===----------------------------------------------------------------------===//

#ifndef KF_PERFBENCH_GENERATOR_H
#define KF_PERFBENCH_GENERATOR_H

#include "Reference.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Longest chain of 3x3 stencils (in pixels of reach) on any path.
constexpr int MaxReach = 3;

enum class GenOp { Input, Add, Sub, Mul, Min, Max, Abs, Scale, Offset, Conv,
                   WindowMax };

struct GenNode {
  GenOp Op = GenOp::Input;
  int A = -1, B = -1; ///< Operand node indices.
  float Imm = 0.0f;   ///< Scale factor / offset.
  int Mask = -1;      ///< Conv / WindowMax mask index.
  Edge Border = Edge::Clamp;
  int Reach = 0;      ///< Stencil reach accumulated along the deepest path.
  float Bound = 1.0f; ///< Upper bound on |value|.
};

struct GenPipeline {
  std::string Name;
  int Width = 0, Height = 0;
  bool Lazy = false; ///< .lz script (else .kfp program).
  std::vector<std::vector<float>> Masks; ///< 3x3 weights, row-major.
  std::vector<GenNode> Nodes;            ///< Inputs first, then ops.
  int NumInputs = 0;
  int Output = -1;
  std::string Text; ///< The .lz or .kfp source.
};

/// Pipeline \p Index of the sequence drawn from \p Seed.
GenPipeline generatePipeline(uint64_t Seed, int Index, int Width, int Height);

/// The pipeline's output computed op by op from \p Inputs (one per input
/// node, in order).
kf::Image evaluatePipeline(const GenPipeline &G,
                           const std::vector<kf::Image> &Inputs);

} // namespace perfbench

#endif // KF_PERFBENCH_GENERATOR_H
