//===- ir/ExprVM.cpp ----------------------------------------------------------===//

#include "ir/ExprVM.h"

#include "image/Border.h"
#include "ir/LaneOps.h"
#include "support/Error.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

using namespace kf;

VmMode kf::resolveVmMode(VmMode Requested, bool JitAvailable) {
  if (Requested != VmMode::Auto)
    return Requested;
  if (const char *Env = std::getenv("KF_VM")) {
    if (std::strcmp(Env, "span") == 0)
      return VmMode::Span;
    if (std::strcmp(Env, "jit") == 0)
      return VmMode::Jit;
    // A malformed KF_VM silently changing which interior engine every run
    // uses is a debugging trap: say so, but only once per process (the
    // mode is resolved per launch).
    static std::atomic<bool> Warned{false};
    if (!Warned.exchange(true))
      std::fprintf(stderr,
                   "warning: ignoring invalid KF_VM='%s' (expected 'span' or "
                   "'jit'); using the default\n",
                   Env);
  }
  // Auto prefers the JIT artifact when the caller already holds one (the
  // artifact is bit-identical to span, only faster); span otherwise.
  return JitAvailable ? VmMode::Jit : VmMode::Span;
}

const char *kf::vmModeName(VmMode Mode) {
  switch (Mode) {
  case VmMode::Auto:
    return "auto";
  case VmMode::Span:
    return "span";
  case VmMode::Jit:
    return "jit";
  }
  KF_UNREACHABLE("unknown VM mode");
}

TilingStrategy kf::resolveTilingStrategy(TilingStrategy Requested) {
  if (Requested != TilingStrategy::Auto)
    return Requested;
  if (const char *Env = std::getenv("KF_TILING")) {
    if (std::strcmp(Env, "interior") == 0)
      return TilingStrategy::InteriorHalo;
    if (std::strcmp(Env, "overlapped") == 0)
      return TilingStrategy::Overlapped;
    if (std::strcmp(Env, "tuned") == 0)
      return TilingStrategy::Tuned;
    // Same warn-once policy as KF_VM: a malformed value silently changing
    // the execution strategy of every run is a debugging trap.
    static std::atomic<bool> Warned{false};
    if (!Warned.exchange(true))
      std::fprintf(stderr,
                   "warning: ignoring invalid KF_TILING='%s' (expected "
                   "'interior', 'overlapped' or 'tuned'); using interior\n",
                   Env);
  }
  return TilingStrategy::InteriorHalo;
}

const char *kf::tilingStrategyName(TilingStrategy Strategy) {
  switch (Strategy) {
  case TilingStrategy::Auto:
    return "auto";
  case TilingStrategy::InteriorHalo:
    return "interior";
  case TilingStrategy::Overlapped:
    return "overlapped";
  case TilingStrategy::Tuned:
    return "tuned";
  }
  KF_UNREACHABLE("unknown tiling strategy");
}

OptMode kf::resolveOptMode(OptMode Requested) {
  if (Requested != OptMode::Auto)
    return Requested;
  if (const char *Env = std::getenv("KF_OPT")) {
    if (std::strcmp(Env, "on") == 0)
      return OptMode::On;
    if (std::strcmp(Env, "off") == 0)
      return OptMode::Off;
    // Same warn-once policy as KF_VM: a malformed value silently changing
    // which bytecode every session executes is a debugging trap.
    static std::atomic<bool> Warned{false};
    if (!Warned.exchange(true))
      std::fprintf(stderr,
                   "warning: ignoring invalid KF_OPT='%s' (expected 'on' or "
                   "'off'); using on\n",
                   Env);
  }
  return OptMode::On;
}

const char *kf::optModeName(OptMode Mode) {
  switch (Mode) {
  case OptMode::Auto:
    return "auto";
  case OptMode::On:
    return "on";
  case OptMode::Off:
    return "off";
  }
  KF_UNREACHABLE("unknown opt mode");
}

namespace {

/// Bindings of stencil-scoped scalars while compiling an element.
struct StencilBinding {
  int Dx = 0;
  int Dy = 0;
  float MaskVal = 0.0f;
  bool Active = false;
};

/// Recursive compiler from expression trees to the linear VM form. Reads
/// of an input image that \p Eliminated maps to a stage index compile to
/// StageCall instructions (fused-kernel compilation).
class VmCompiler {
public:
  VmCompiler(const Program &P, const Kernel &K,
             const std::map<ImageId, uint16_t> &Eliminated)
      : P(P), K(K), Eliminated(Eliminated) {}

  VmProgram compile(const Expr *Body) {
    VmProgram VM;
    VM.ResultReg = emit(Body, StencilBinding(), VM);
    VM.NumRegs = NextReg;
    return VM;
  }

private:
  uint16_t fresh() {
    assert(NextReg < 0xFFFF && "register file exhausted");
    return static_cast<uint16_t>(NextReg++);
  }

  uint16_t emitConst(float Value, VmProgram &VM) {
    VmInst Inst;
    Inst.Op = VmOp::Const;
    Inst.Dst = fresh();
    Inst.Imm = Value;
    VM.Insts.push_back(Inst);
    return Inst.Dst;
  }

  uint16_t emitBinary(VmOp Op, uint16_t A, uint16_t B, VmProgram &VM) {
    VmInst Inst;
    Inst.Op = Op;
    Inst.Dst = fresh();
    Inst.A = A;
    Inst.B = B;
    VM.Insts.push_back(Inst);
    return Inst.Dst;
  }

  uint16_t emit(const Expr *E, const StencilBinding &Env, VmProgram &VM) {
    switch (E->Kind) {
    case ExprKind::FloatConst:
      return emitConst(E->Value, VM);
    case ExprKind::CoordX:
    case ExprKind::CoordY: {
      VmInst Inst;
      Inst.Op = E->Kind == ExprKind::CoordX ? VmOp::CoordX : VmOp::CoordY;
      Inst.Dst = fresh();
      VM.Insts.push_back(Inst);
      return Inst.Dst;
    }
    case ExprKind::MaskValue:
      assert(Env.Active && "mask value outside a stencil");
      return emitConst(Env.MaskVal, VM);
    case ExprKind::StencilOffX:
      assert(Env.Active && "stencil offset outside a stencil");
      return emitConst(static_cast<float>(Env.Dx), VM);
    case ExprKind::StencilOffY:
      assert(Env.Active && "stencil offset outside a stencil");
      return emitConst(static_cast<float>(Env.Dy), VM);
    case ExprKind::InputAt:
    case ExprKind::StencilInput: {
      VmInst Inst;
      Inst.Op = VmOp::Load;
      Inst.Dst = fresh();
      Inst.InputIdx = static_cast<int16_t>(E->InputIdx);
      if (E->Kind == ExprKind::InputAt) {
        Inst.Ox = static_cast<int16_t>(E->OffsetX);
        Inst.Oy = static_cast<int16_t>(E->OffsetY);
      } else {
        assert(Env.Active && "window access outside a stencil");
        Inst.Ox = static_cast<int16_t>(Env.Dx);
        Inst.Oy = static_cast<int16_t>(Env.Dy);
      }
      Inst.Channel = static_cast<int16_t>(E->Channel);
      auto Stage = Eliminated.find(K.Inputs[E->InputIdx]);
      if (Stage != Eliminated.end()) {
        Inst.Op = VmOp::StageCall;
        Inst.Sel = Stage->second;
      }
      VM.Insts.push_back(Inst);
      return Inst.Dst;
    }
    case ExprKind::Binary: {
      uint16_t A = emit(E->Lhs, Env, VM);
      uint16_t B = emit(E->Rhs, Env, VM);
      VmOp Op = VmOp::Add;
      switch (E->BinaryOp) {
      case BinOp::Add:
        Op = VmOp::Add;
        break;
      case BinOp::Sub:
        Op = VmOp::Sub;
        break;
      case BinOp::Mul:
        Op = VmOp::Mul;
        break;
      case BinOp::Div:
        Op = VmOp::Div;
        break;
      case BinOp::Min:
        Op = VmOp::Min;
        break;
      case BinOp::Max:
        Op = VmOp::Max;
        break;
      case BinOp::Pow:
        Op = VmOp::Pow;
        break;
      case BinOp::CmpLT:
        Op = VmOp::CmpLT;
        break;
      case BinOp::CmpGT:
        Op = VmOp::CmpGT;
        break;
      }
      return emitBinary(Op, A, B, VM);
    }
    case ExprKind::Unary: {
      uint16_t A = emit(E->Lhs, Env, VM);
      VmOp Op = VmOp::Neg;
      switch (E->UnaryOp) {
      case UnOp::Neg:
        Op = VmOp::Neg;
        break;
      case UnOp::Abs:
        Op = VmOp::Abs;
        break;
      case UnOp::Sqrt:
        Op = VmOp::Sqrt;
        break;
      case UnOp::Exp:
        Op = VmOp::Exp;
        break;
      case UnOp::Log:
        Op = VmOp::Log;
        break;
      case UnOp::Floor:
        Op = VmOp::Floor;
        break;
      }
      VmInst Inst;
      Inst.Op = Op;
      Inst.Dst = fresh();
      Inst.A = A;
      VM.Insts.push_back(Inst);
      return Inst.Dst;
    }
    case ExprKind::Select: {
      VmInst Inst;
      Inst.Op = VmOp::Select;
      Inst.Sel = emit(E->Cond, Env, VM);
      Inst.A = emit(E->Lhs, Env, VM);
      Inst.B = emit(E->Rhs, Env, VM);
      Inst.Dst = fresh();
      VM.Insts.push_back(Inst);
      return Inst.Dst;
    }
    case ExprKind::Stencil: {
      // Fully unroll the reduction: one element expansion per window
      // position with mask value and offsets baked as constants; combine
      // with the reduce operator in evaluation order.
      const Mask &M = P.mask(E->MaskIdx);
      uint16_t Acc = 0;
      bool First = true;
      for (int Dy = -M.haloY(); Dy <= M.haloY(); ++Dy)
        for (int Dx = -M.haloX(); Dx <= M.haloX(); ++Dx) {
          StencilBinding Elem{Dx, Dy, M.at(Dx, Dy), true};
          uint16_t Value = emit(E->Lhs, Elem, VM);
          if (First) {
            Acc = Value;
            First = false;
            continue;
          }
          VmOp Op = VmOp::Add;
          switch (E->Reduce) {
          case ReduceOp::Sum:
            Op = VmOp::Add;
            break;
          case ReduceOp::Product:
            Op = VmOp::Mul;
            break;
          case ReduceOp::Min:
            Op = VmOp::Min;
            break;
          case ReduceOp::Max:
            Op = VmOp::Max;
            break;
          }
          Acc = emitBinary(Op, Acc, Value, VM);
        }
      return Acc;
    }
    }
    KF_UNREACHABLE("unknown expression kind");
  }

  const Program &P;
  const Kernel &K;
  const std::map<ImageId, uint16_t> &Eliminated;
  unsigned NextReg = 0;
};

} // namespace

namespace {

/// Evaluates one non-load, non-call instruction into \p Regs: the ALU
/// half of the per-pixel bordered evaluator (the width-1 lane kernels).
inline void evalAluInst(const VmInst &Inst, float *Regs, int X, int Y) {
  float *D = Regs + Inst.Dst;
  lane::visitOp(Inst.Op, [&](auto Tag) {
    constexpr VmOp Op = decltype(Tag)::value;
    if constexpr (Op == VmOp::Const)
      lane::fill<1>(D, Inst.Imm, 1);
    else if constexpr (Op == VmOp::CoordX)
      lane::iota<1>(D, X, 1);
    else if constexpr (Op == VmOp::CoordY)
      lane::fill<1>(D, static_cast<float>(Y), 1);
    else if constexpr (lane::isAlu(Op))
      lane::alu<1, Op>(D, Regs + Inst.A, Regs + Inst.B, Regs + Inst.Sel, 1);
    else
      KF_UNREACHABLE("memory op reached the ALU path");
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// Row-wise (instruction-major) interior evaluation
//===----------------------------------------------------------------------===//

namespace {

/// Executes \p Code instruction-major over the chunk of \p W pixels
/// starting at (X0, Y), through the width-\p N lane kernels. Register r
/// is the VmLaneWidth-float slot Frame + r * VmLaneWidth. \p Inputs
/// resolves Load pool images; \p CallRow handles StageCall ops (writes
/// the callee's value per pixel into the destination slot).
template <int N, class CallRowFn>
void evalRowImpl(const VmProgram &Code, const std::vector<Image> &Pool,
                 const std::vector<ImageId> &Inputs, int Y, int X0, int W,
                 int Channel, float *Frame, float *Out, int OutStride,
                 CallRowFn &&CallRow) {
  auto Row = [&](uint16_t Reg) {
    return Frame + static_cast<size_t>(Reg) * VmLaneWidth;
  };
  for (const VmInst &Inst : Code.Insts) {
    float *D = Row(Inst.Dst);
    lane::visitOp(Inst.Op, [&](auto Tag) {
      constexpr VmOp Op = decltype(Tag)::value;
      if constexpr (Op == VmOp::Load) {
        const Image &Img = Pool[Inputs[Inst.InputIdx]];
        int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
        assert(Y + Inst.Oy >= 0 && Y + Inst.Oy < Img.height() &&
               X0 + Inst.Ox >= 0 && X0 + W - 1 + Inst.Ox < Img.width() &&
               "row evaluation outside the interior region");
        const float *Base = Img.data().data() +
                            (static_cast<size_t>(Y + Inst.Oy) * Img.width() +
                             (X0 + Inst.Ox)) *
                                Img.channels() +
                            Ch;
        if (Img.channels() == 1)
          lane::copy<N>(D, Base, W);
        else
          lane::gather<N>(D, Base, Img.channels(), W);
      } else if constexpr (Op == VmOp::StageCall) {
        CallRow(Inst, D);
      } else if constexpr (Op == VmOp::Const) {
        lane::fill<N>(D, Inst.Imm, W);
      } else if constexpr (Op == VmOp::CoordX) {
        lane::iota<N>(D, X0, W);
      } else if constexpr (Op == VmOp::CoordY) {
        lane::fill<N>(D, static_cast<float>(Y), W);
      } else {
        lane::alu<N, Op>(D, Row(Inst.A), Row(Inst.B), Row(Inst.Sel), W);
      }
    });
  }
  lane::store<N>(Out, Row(Code.ResultReg), OutStride, W);
}

} // namespace

//===----------------------------------------------------------------------===//
// Staged (fused-kernel) programs
//===----------------------------------------------------------------------===//

StagedVmProgram
kf::compileStagedProgram(const Program &P,
                         const std::vector<KernelId> &StageKernels,
                         const std::vector<bool> &IsEliminated) {
  assert(StageKernels.size() == IsEliminated.size() &&
         "one elimination flag per stage");
  assert(StageKernels.size() <= 0xFFFF && "stage index must fit Sel");

  std::map<ImageId, uint16_t> Eliminated;
  for (size_t I = 0; I != StageKernels.size(); ++I)
    if (IsEliminated[I])
      Eliminated[P.kernel(StageKernels[I]).Output] =
          static_cast<uint16_t>(I);

  StagedVmProgram SP;
  SP.Reach.resize(StageKernels.size(), 0);
  unsigned RegBase = 0;
  int RefW = -1, RefH = -1;
  auto noteExtent = [&](int W, int H) {
    if (RefW < 0) {
      RefW = W;
      RefH = H;
    } else if (W != RefW || H != RefH) {
      SP.UniformExtents = false;
    }
  };

  for (size_t I = 0; I != StageKernels.size(); ++I) {
    const Kernel &K = P.kernel(StageKernels[I]);
    VmStage Stage;
    VmCompiler Compiler(P, K, Eliminated);
    Stage.Code = Compiler.compile(K.Body);
    Stage.Inputs = K.Inputs;
    Stage.Border = K.Border;
    Stage.BorderConstant = K.BorderConstant;
    const ImageInfo &OutInfo = P.image(K.Output);
    Stage.OutW = OutInfo.Width;
    Stage.OutH = OutInfo.Height;
    Stage.RegBase = RegBase;
    RegBase += Stage.Code.NumRegs;
    noteExtent(Stage.OutW, Stage.OutH);

    // Transitive reach: direct load offsets, plus call offsets grown by
    // the callee's reach (callees precede their consumers in stage
    // order, so Reach is final when read).
    int Reach = 0;
    for (const VmInst &Inst : Stage.Code.Insts) {
      int Off = std::max(std::abs(static_cast<int>(Inst.Ox)),
                         std::abs(static_cast<int>(Inst.Oy)));
      if (Inst.Op == VmOp::Load) {
        const ImageInfo &In = P.image(K.Inputs[Inst.InputIdx]);
        noteExtent(In.Width, In.Height);
        Reach = std::max(Reach, Off);
      } else if (Inst.Op == VmOp::StageCall) {
        assert(Inst.Sel < I && "stage call to a non-preceding stage");
        Reach = std::max(Reach, Off + SP.Reach[Inst.Sel]);
      }
    }
    SP.Reach[I] = Reach;
    SP.Stages.push_back(std::move(Stage));
  }
  SP.NumRegs = RegBase;
  return SP;
}

namespace {

/// Per-pixel staged evaluation with full border handling: bordered loads
/// and index-exchanged stage calls (the halo-correct slow path).
float evalStagedVm(const StagedVmProgram &SP, uint16_t StageIdx,
                   const std::vector<Image> &Pool, int X, int Y, int Channel,
                   float *Regs, bool UseIndexExchange) {
  const VmStage &Stage = SP.Stages[StageIdx];
  float *Frame = Regs + Stage.RegBase;
  for (const VmInst &Inst : Stage.Code.Insts) {
    switch (Inst.Op) {
    case VmOp::Load: {
      const Image &Img = Pool[Stage.Inputs[Inst.InputIdx]];
      assert(!Img.empty() && "reading an unmaterialized image");
      int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
      Frame[Inst.Dst] = sampleWithBorder(Img, X + Inst.Ox, Y + Inst.Oy, Ch,
                                         Stage.Border, Stage.BorderConstant);
      break;
    }
    case VmOp::StageCall: {
      const VmStage &Callee = SP.Stages[Inst.Sel];
      int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
      int TX = X + Inst.Ox;
      int TY = Y + Inst.Oy;
      bool Exterior =
          TX < 0 || TX >= Callee.OutW || TY < 0 || TY >= Callee.OutH;
      if (Exterior && UseIndexExchange) {
        // Index exchange (Section IV-B): exterior accesses to the
        // eliminated intermediate are exchanged per the *consuming*
        // stage's border handling before the producer is evaluated.
        int EX = exchangeIndex(TX, Callee.OutW, Stage.Border);
        int EY = exchangeIndex(TY, Callee.OutH, Stage.Border);
        if (EX < 0 || EY < 0) {
          Frame[Inst.Dst] = Stage.BorderConstant;
          break;
        }
        TX = EX;
        TY = EY;
      }
      // Without the exchange the producer is (incorrectly) evaluated at
      // the raw exterior position -- reproducing Figure 4b.
      Frame[Inst.Dst] = evalStagedVm(SP, Inst.Sel, Pool, TX, TY, Ch, Regs,
                                     UseIndexExchange);
      break;
    }
    default:
      evalAluInst(Inst, Frame, X, Y);
      break;
    }
  }
  return Frame[Stage.Code.ResultReg];
}

} // namespace

float kf::runStagedVm(const StagedVmProgram &SP, uint16_t RootStage,
                      const std::vector<Image> &Pool, int X, int Y,
                      int Channel, float *Regs, bool UseIndexExchange) {
  return evalStagedVm(SP, RootStage, Pool, X, Y, Channel, Regs,
                      UseIndexExchange);
}

namespace {

/// Instruction-major interior evaluation of one stage over the chunk of
/// \p W pixels starting at (X0, Y). Stage calls recurse chunk-wise too --
/// the callee streams its subprogram across the (offset-shifted) chunk
/// straight into the caller's destination slot -- so the whole staged
/// program stays instruction-major. \p LaneRegs holds
/// SP.NumRegs * VmLaneWidth floats partitioned by the stages' RegBase
/// frames; the acyclic call graph guarantees a stage never reuses a live
/// frame, and sequential calls to the same callee simply overwrite its
/// frame.
template <int N>
void evalStagedChunk(const StagedVmProgram &SP, uint16_t StageIdx,
                     const std::vector<Image> &Pool, int Y, int X0, int W,
                     int Channel, float *LaneRegs, float *Out,
                     int OutStride) {
  const VmStage &Stage = SP.Stages[StageIdx];
  float *Frame = LaneRegs + static_cast<size_t>(Stage.RegBase) * VmLaneWidth;
  evalRowImpl<N>(Stage.Code, Pool, Stage.Inputs, Y, X0, W, Channel, Frame,
                 Out, OutStride, [&](const VmInst &Inst, float *D) {
                   int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
                   evalStagedChunk<N>(SP, Inst.Sel, Pool, Y + Inst.Oy,
                                      X0 + Inst.Ox, W, Ch, LaneRegs, D, 1);
                 });
}

} // namespace

void kf::runStagedVmSpan(const StagedVmProgram &SP, uint16_t RootStage,
                         const std::vector<Image> &Pool, int Y, int X0,
                         int X1, int Channel, float *LaneRegs,
                         float *Out, int OutStride) {
  // Chunked lane-buffer evaluation: stage frames partition the buffer at
  // RegBase * VmLaneWidth and every register is one VmLaneWidth slot, so
  // no frame ever overruns into its neighbour (the validator's KF-B11
  // invariant) and the whole register working set is
  // SP.NumRegs * VmLaneWidth floats. StageCall recursion inside
  // evalStagedChunk shifts the chunk's column range per call, so the
  // callee streams over exactly the caller's lanes.
  lane::forEachChunk(X0, X1, [&](int C0, int W, auto Width) {
    evalStagedChunk<decltype(Width)::value>(
        SP, RootStage, Pool, Y, C0, W, Channel, LaneRegs,
        Out + static_cast<size_t>(C0 - X0) * OutStride, OutStride);
  });
}

//===----------------------------------------------------------------------===//
// Overlapped tiling
//===----------------------------------------------------------------------===//

OverlapSchedule kf::buildOverlapSchedule(const StagedVmProgram &SP,
                                         uint16_t Root, int Channels) {
  OverlapSchedule Schedule;
  if (!SP.UniformExtents || Root >= SP.Stages.size() || Channels <= 0)
    return Schedule; // Valid stays false: no interior, no planes.

  Schedule.PerChannel.resize(Channels);
  for (int C = 0; C != Channels; ++C) {
    // Margin per demanded (stage, channel): the maximum stage-call
    // distance from the root. Walking stages in decreasing index is a
    // reverse topological order (calls always target preceding stages),
    // so a stage's margin is final before its own calls are expanded.
    std::vector<std::map<int, int>> Margin(Root + 1);
    Margin[Root][C] = 0;
    for (int S = Root; S >= 0; --S) {
      for (const auto &[Ch, M] : Margin[S]) {
        for (const VmInst &Inst : SP.Stages[S].Code.Insts) {
          if (Inst.Op != VmOp::StageCall)
            continue;
          assert(Inst.Sel < S && "stage call to a non-preceding stage");
          int Off = std::max(std::abs(static_cast<int>(Inst.Ox)),
                             std::abs(static_cast<int>(Inst.Oy)));
          int CalleeCh = Inst.Channel < 0 ? Ch : Inst.Channel;
          auto [It, Inserted] = Margin[Inst.Sel].emplace(CalleeCh, M + Off);
          if (!Inserted)
            It->second = std::max(It->second, M + Off);
        }
      }
    }
    // Materialization order: ascending stage index puts every callee
    // before its callers, so a plane only reads already-filled planes.
    for (int S = 0; S <= static_cast<int>(Root); ++S)
      for (const auto &[Ch, M] : Margin[S]) {
        if (S == Root && Ch == C)
          continue; // The root writes the destination, not a plane.
        Schedule.PerChannel[C].push_back(
            {static_cast<uint16_t>(S), static_cast<int16_t>(Ch), M});
        Schedule.MaxMargin = std::max(Schedule.MaxMargin, M);
      }
  }
  Schedule.Valid = true;
  return Schedule;
}

size_t kf::overlapPlaneFloats(const OverlapSchedule &Schedule, int RootW,
                              int RootH) {
  size_t Max = 0;
  for (const std::vector<OverlapPlane> &Planes : Schedule.PerChannel) {
    size_t Floats = 0;
    for (const OverlapPlane &Plane : Planes)
      Floats += static_cast<size_t>(RootW + 2 * Plane.Margin) *
                (RootH + 2 * Plane.Margin);
    Max = std::max(Max, Floats);
  }
  return Max;
}

namespace {

/// A materialized plane during one runOverlappedTile call: the grown
/// region [X0, X0+W) x [Y0, Y0+H) backed by \p Data (pitch = W).
struct PlaneView {
  int X0 = 0;
  int Y0 = 0;
  int W = 0;
  int H = 0;
  float *Data = nullptr;
};

/// Evaluates stage \p StageIdx of \p SP over region
/// [RX0, RX1) x [RY0, RY1) at channel \p Ch, resolving StageCall ops
/// against the plane views of \p Resolve, writing result (x, y) to
/// Dst[(y - RY0) * DstPitch + (x - RX0) * DstStride]. Rows stream through
/// evalRowImpl in lane::forEachChunk chunks (plane reads are contiguous
/// row copies),
/// running exactly the instruction streams the interior/halo strategy
/// runs, so values are bit-identical.
template <class ResolveFn>
void evalOverlapRegion(const StagedVmProgram &SP, uint16_t StageIdx,
                       const std::vector<Image> &Pool, int RX0, int RX1,
                       int RY0, int RY1, int Ch, float *LaneRegs,
                       float *Dst, size_t DstPitch, int DstStride,
                       ResolveFn &&Resolve) {
  const VmStage &Stage = SP.Stages[StageIdx];
  float *Frame = LaneRegs + static_cast<size_t>(Stage.RegBase) * VmLaneWidth;
  for (int Y = RY0; Y != RY1; ++Y) {
    float *DstRow = Dst + static_cast<size_t>(Y - RY0) * DstPitch;
    lane::forEachChunk(RX0, RX1, [&](int C0, int W, auto Width) {
      constexpr int N = decltype(Width)::value;
      evalRowImpl<N>(
          Stage.Code, Pool, Stage.Inputs, Y, C0, W, Ch, Frame,
          DstRow + static_cast<size_t>(C0 - RX0) * DstStride, DstStride,
          [&](const VmInst &Inst, float *D) {
            const PlaneView &V =
                Resolve(Inst.Sel, Inst.Channel < 0 ? Ch : Inst.Channel);
            assert(Y + Inst.Oy >= V.Y0 && Y + Inst.Oy < V.Y0 + V.H &&
                   C0 + Inst.Ox >= V.X0 &&
                   C0 + W - 1 + Inst.Ox < V.X0 + V.W &&
                   "plane read outside the materialized margin");
            lane::copy<N>(D,
                          V.Data +
                              static_cast<size_t>(Y + Inst.Oy - V.Y0) * V.W +
                              (C0 + Inst.Ox - V.X0),
                          W);
          });
    });
  }
}

} // namespace

void kf::runOverlappedTile(const StagedVmProgram &SP, uint16_t Root,
                           const OverlapSchedule &Schedule,
                           const std::vector<Image> &Pool, int X0, int X1,
                           int Y0, int Y1, int Channels, float *PlaneScratch,
                           float *LaneRegs, float *OutBase, int OutWidth,
                           OverlapTileStats *Stats) {
  assert(Schedule.Valid && "overlapped execution without a valid schedule");
  const int RootW = X1 - X0, RootH = Y1 - Y0;
  if (RootW <= 0 || RootH <= 0)
    return;
  const long long RootArea = static_cast<long long>(RootW) * RootH;

  for (int C = 0; C != Channels; ++C) {
    const std::vector<OverlapPlane> &Planes = Schedule.PerChannel[C];
    // Lay the channel's planes out back to back in the scratch; every
    // channel reuses the same block (overlapPlaneFloats is the maximum).
    std::vector<PlaneView> Views(Planes.size());
    size_t Offset = 0;
    for (size_t I = 0; I != Planes.size(); ++I) {
      const OverlapPlane &Plane = Planes[I];
      PlaneView &V = Views[I];
      V.X0 = X0 - Plane.Margin;
      V.Y0 = Y0 - Plane.Margin;
      V.W = RootW + 2 * Plane.Margin;
      V.H = RootH + 2 * Plane.Margin;
      V.Data = PlaneScratch + Offset;
      Offset += static_cast<size_t>(V.W) * V.H;
    }
    auto Resolve = [&](uint16_t Stage, int Ch) -> const PlaneView & {
      // The plane lists are tiny (demanded stages x channels); a linear
      // scan beats a hash per stage-call instruction.
      for (size_t I = 0; I != Planes.size(); ++I)
        if (Planes[I].Stage == Stage && Planes[I].Channel == Ch)
          return Views[I];
      KF_UNREACHABLE("stage call outside the overlap schedule");
    };

    // Materialize demanded planes (callees first), then the root region
    // straight into the destination image.
    for (size_t I = 0; I != Planes.size(); ++I) {
      const PlaneView &V = Views[I];
      evalOverlapRegion(SP, Planes[I].Stage, Pool, V.X0, V.X0 + V.W, V.Y0,
                        V.Y0 + V.H, Planes[I].Channel, LaneRegs, V.Data,
                        V.W, 1, Resolve);
      if (Stats) {
        const long long Area = static_cast<long long>(V.W) * V.H;
        Stats->OverlapPixels += Area - RootArea;
        Stats->ComputedPixels += Area;
      }
    }
    evalOverlapRegion(SP, Root, Pool, X0, X1, Y0, Y1, C, LaneRegs,
                      OutBase +
                          (static_cast<size_t>(Y0) * OutWidth + X0) *
                              Channels +
                          C,
                      static_cast<size_t>(OutWidth) * Channels, Channels,
                      Resolve);
    if (Stats)
      Stats->ComputedPixels += RootArea;
  }
}
