//===- ir/LaneOps.h - The lane kernels of the VM engines --------*- C++ -*-===//
///
/// \file
/// One loop per VM opcode over a chunk of lane registers: the single
/// definition of what every opcode computes. The span interpreter
/// (ir/ExprVM.cpp) dispatches to these kernels per instruction (visitOp),
/// the JIT (jit/JitProgram.cpp) patches thin wrappers around them into its
/// cell chains, and the per-pixel bordered evaluator and the optimizer's
/// constant folder run the width-1 instantiations. Bit-identity across
/// engines is therefore by construction: every engine executes the same
/// float operation per lane.
///
/// Every kernel is templated on the chunk width N:
///   - N = VmLaneWidth: a full chunk, compile-time trip count. These
///     instantiations compile to packed SIMD at the repository's build type
///     (-O2, whose cost model accepts no runtime trip count and no runtime
///     alias check);
///   - N = 0: the runtime width W of a chunk narrower than one lane (the
///     only chunk of a span narrower than VmLaneWidth). Stays scalar;
///   - N = 1: a single pixel (the bordered path, constant folding).
///
/// No-alias contract. Every lane loop carries KF_LANE_IVDEP, which asserts
/// that no iteration reads what another iteration writes. Register
/// operands are VmLaneWidth-aligned slots of one lane buffer: the bytecode
/// validator's KF-B02/B07 keep every operand inside its stage's frame and
/// KF-B11 keeps stage frames disjoint, so two operands are either the same
/// slot (D == A: lane i reads, then writes, only lane i) or disjoint slots
/// -- never a partial overlap. Loads read pool images and result stores
/// write the caller's output or scratch plane, never the lane buffer.
///
/// Vectorization guard. Every loop tagged `lane-loop:` must get a "loop
/// vectorized" report from GCC at the project's flags;
/// tools/check_lane_vectorized.py checks this in CI. Loops tagged
/// `lane-loop-scalar:` stay scalar, for the reason the tag gives. The
/// loops walk pointers rather than an index: inlined into a caller that
/// forms the operand pointers, the index form costs the runtime-width
/// (N = 0) loops two extra instructions per lane at -O2.
///
//===----------------------------------------------------------------------===//

#ifndef KF_IR_LANEOPS_H
#define KF_IR_LANEOPS_H

#include "ir/ExprVM.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>

#if defined(__clang__)
#define KF_LANE_IVDEP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define KF_LANE_IVDEP _Pragma("GCC ivdep")
#else
#define KF_LANE_IVDEP
#endif

namespace kf::lane {

/// The trip count of a width-\p N kernel over a chunk of \p W pixels.
template <int N> constexpr int width(int W) { return N > 0 ? N : W; }

/// Splits the span [X0, X1) into lane chunks and calls
/// Chunk(C0, W, WidthTag) for each, where WidthTag is an
/// std::integral_constant<int, N> naming the kernel width to run. A span
/// at least one lane wide runs only full chunks: the last one is shifted
/// left to end at X1, so it recomputes up to VmLaneWidth - 1 pixels of
/// its predecessor. Pixels are pure functions of their inputs, so the
/// overlap rewrites identical values inside the caller's own span. A span
/// narrower than one lane is a single runtime-width chunk.
template <class ChunkFn>
inline void forEachChunk(int X0, int X1, ChunkFn &&Chunk) {
  if (X1 - X0 < VmLaneWidth) {
    if (X0 < X1)
      Chunk(X0, X1 - X0, std::integral_constant<int, 0>{});
    return;
  }
  for (int C0 = X0;; C0 += VmLaneWidth) {
    C0 = std::min(C0, X1 - VmLaneWidth);
    Chunk(C0, VmLaneWidth, std::integral_constant<int, VmLaneWidth>{});
    if (C0 + VmLaneWidth == X1)
      return;
  }
}

/// Const and CoordY: D[i] = V.
template <int N> inline void fill(float *D, float V, int W) {
  W = width<N>(W);
  // lane-loop: fill
  KF_LANE_IVDEP
  for (float *End = D + W; D != End; ++D)
    *D = V;
}

/// CoordX: D[i] = (float)(X + i).
template <int N> inline void iota(float *D, int X, int W) {
  W = width<N>(W);
  // lane-loop: iota
  KF_LANE_IVDEP
  for (int I = 0; I != W; ++I)
    D[I] = static_cast<float>(X + I);
}

/// Single-channel Load, the stage-call result copy, the overlapped
/// strategy's plane-row read and the unit-stride result store:
/// D[i] = Src[i].
template <int N> inline void copy(float *D, const float *Src, int W) {
  W = width<N>(W);
  // lane-loop: copy
  KF_LANE_IVDEP
  for (float *End = D + W; D != End; ++D, ++Src)
    *D = *Src;
}

/// Multi-channel Load: D[i] = Src[i * Stride].
template <int N>
inline void gather(float *D, const float *Src, size_t Stride, int W) {
  W = width<N>(W);
  // lane-loop-scalar: gather -- strided multi-channel load
  KF_LANE_IVDEP
  for (int I = 0; I != W; ++I)
    D[I] = Src[static_cast<size_t>(I) * Stride];
}

/// Result store into an interleaved output: Out[i * Stride] = R[i].
template <int N>
inline void scatter(float *Out, const float *R, size_t Stride, int W) {
  W = width<N>(W);
  // lane-loop-scalar: scatter -- strided multi-channel store
  KF_LANE_IVDEP
  for (int I = 0; I != W; ++I)
    Out[static_cast<size_t>(I) * Stride] = R[I];
}

/// Result store: Out[i * Stride] = R[i], unit stride as a copy.
template <int N>
inline void store(float *Out, const float *R, int Stride, int W) {
  if (Stride == 1)
    copy<N>(Out, R, W);
  else
    scatter<N>(Out, R, static_cast<size_t>(Stride), W);
}

/// ALU opcodes and Select: D[i] = Op(A[i], B[i]), Select reading its
/// condition from S. Unary ops read only A.
template <int N, VmOp Op>
inline void alu(float *D, const float *A, const float *B, const float *S,
                int W) {
  W = width<N>(W);
  if constexpr (Op == VmOp::Add) {
    // lane-loop: Add
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = *A + *B;
  } else if constexpr (Op == VmOp::Sub) {
    // lane-loop: Sub
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = *A - *B;
  } else if constexpr (Op == VmOp::Mul) {
    // lane-loop: Mul
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = *A * *B;
  } else if constexpr (Op == VmOp::Div) {
    // lane-loop: Div
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = *A / *B;
  } else if constexpr (Op == VmOp::Min) {
    // lane-loop: Min
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = std::min(*A, *B);
  } else if constexpr (Op == VmOp::Max) {
    // lane-loop: Max
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = std::max(*A, *B);
  } else if constexpr (Op == VmOp::Pow) {
    // lane-loop-scalar: Pow -- libm call
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = std::pow(*A, *B);
  } else if constexpr (Op == VmOp::CmpLT) {
    // lane-loop: CmpLT
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = *A < *B ? 1.0f : 0.0f;
  } else if constexpr (Op == VmOp::CmpGT) {
    // lane-loop: CmpGT
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B)
      *D = *A > *B ? 1.0f : 0.0f;
  } else if constexpr (Op == VmOp::Neg) {
    // lane-loop: Neg
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A)
      *D = -*A;
  } else if constexpr (Op == VmOp::Abs) {
    // lane-loop: Abs
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A)
      *D = std::abs(*A);
  } else if constexpr (Op == VmOp::Sqrt) {
    // lane-loop: Sqrt
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A)
      *D = std::sqrt(*A);
  } else if constexpr (Op == VmOp::Exp) {
    // lane-loop-scalar: Exp -- libm call
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A)
      *D = std::exp(*A);
  } else if constexpr (Op == VmOp::Log) {
    // lane-loop-scalar: Log -- libm call
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A)
      *D = std::log(*A);
  } else if constexpr (Op == VmOp::Floor) {
    // lane-loop-scalar: Floor -- SSE2 has no packed round
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A)
      *D = std::floor(*A);
  } else {
    static_assert(Op == VmOp::Select, "not an ALU opcode");
    // lane-loop: Select
    KF_LANE_IVDEP
    for (float *End = D + W; D != End; ++D, ++A, ++B, ++S) {
      // Both arms load unconditionally, so the loop if-converts.
      const float X = *A, Y = *B;
      *D = *S != 0.0f ? X : Y;
    }
  }
}

/// True for the opcodes alu<N, Op> implements: every opcode but Const,
/// CoordX/Y, Load and StageCall.
constexpr bool isAlu(VmOp Op) {
  return Op != VmOp::Const && Op != VmOp::CoordX && Op != VmOp::CoordY &&
         Op != VmOp::Load && Op != VmOp::StageCall;
}

/// Calls F(std::integral_constant<VmOp, Op>{}) for the runtime opcode
/// \p Op: one jump table, after which \p F branches on the opcode at
/// compile time (`if constexpr`).
template <class Fn> inline void visitOp(VmOp Op, Fn &&F) {
  switch (Op) {
  case VmOp::Const:
    F(std::integral_constant<VmOp, VmOp::Const>{});
    return;
  case VmOp::CoordX:
    F(std::integral_constant<VmOp, VmOp::CoordX>{});
    return;
  case VmOp::CoordY:
    F(std::integral_constant<VmOp, VmOp::CoordY>{});
    return;
  case VmOp::Load:
    F(std::integral_constant<VmOp, VmOp::Load>{});
    return;
  case VmOp::Add:
    F(std::integral_constant<VmOp, VmOp::Add>{});
    return;
  case VmOp::Sub:
    F(std::integral_constant<VmOp, VmOp::Sub>{});
    return;
  case VmOp::Mul:
    F(std::integral_constant<VmOp, VmOp::Mul>{});
    return;
  case VmOp::Div:
    F(std::integral_constant<VmOp, VmOp::Div>{});
    return;
  case VmOp::Min:
    F(std::integral_constant<VmOp, VmOp::Min>{});
    return;
  case VmOp::Max:
    F(std::integral_constant<VmOp, VmOp::Max>{});
    return;
  case VmOp::Pow:
    F(std::integral_constant<VmOp, VmOp::Pow>{});
    return;
  case VmOp::CmpLT:
    F(std::integral_constant<VmOp, VmOp::CmpLT>{});
    return;
  case VmOp::CmpGT:
    F(std::integral_constant<VmOp, VmOp::CmpGT>{});
    return;
  case VmOp::Neg:
    F(std::integral_constant<VmOp, VmOp::Neg>{});
    return;
  case VmOp::Abs:
    F(std::integral_constant<VmOp, VmOp::Abs>{});
    return;
  case VmOp::Sqrt:
    F(std::integral_constant<VmOp, VmOp::Sqrt>{});
    return;
  case VmOp::Exp:
    F(std::integral_constant<VmOp, VmOp::Exp>{});
    return;
  case VmOp::Log:
    F(std::integral_constant<VmOp, VmOp::Log>{});
    return;
  case VmOp::Floor:
    F(std::integral_constant<VmOp, VmOp::Floor>{});
    return;
  case VmOp::Select:
    F(std::integral_constant<VmOp, VmOp::Select>{});
    return;
  case VmOp::StageCall:
    F(std::integral_constant<VmOp, VmOp::StageCall>{});
    return;
  }
}

} // namespace kf::lane

#endif // KF_IR_LANEOPS_H
