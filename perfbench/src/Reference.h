//===- perfbench/src/Reference.h - Hand-written reference loops -*- C++ -*-===//
///
/// \file
/// Plain loops that compute registry pipelines and generated-pipeline ops
/// from their definitions, with no library code on the path (no IR, no
/// fusion, no bytecode, no JIT). The benchmark compares the fused outputs
/// against them within a float tolerance: the loops may sum in another
/// order than the library does.
///
//===----------------------------------------------------------------------===//

#ifndef KF_PERFBENCH_REFERENCE_H
#define KF_PERFBENCH_REFERENCE_H

#include "image/Image.h"

#include <vector>

namespace perfbench {

/// Relative tolerance of every hand-written reference comparison.
constexpr double ReferenceTolerance = 1e-5;

/// Border handling, written out here rather than taken from the library.
enum class Edge { Clamp, Mirror, Repeat, Constant };

/// Sample (X, Y, C) of \p Img with out-of-range coordinates mapped by
/// \p Mode (Constant returns \p Value).
float sampleEdge(const kf::Image &Img, int X, int Y, int C, Edge Mode,
                 float Value = 0.0f);

/// 3x3 weighted sum sum_{dy,dx} W[(dy+1)*3 + dx+1] * in(x+dx, y+dy).
kf::Image convolve3x3(const kf::Image &In, const std::vector<float> &W,
                      Edge Mode, float Value = 0.0f);

/// Sobel gradient magnitude of the registry "sobel" pipeline.
kf::Image referenceSobel(const kf::Image &In);

/// Unsharp mask of the registry "unsharp" pipeline.
kf::Image referenceUnsharp(const kf::Image &In);

} // namespace perfbench

#endif // KF_PERFBENCH_REFERENCE_H
