//===- perfbench/src/Generator.cpp - Seeded pipeline generator ------------===//

#include "Generator.h"

#include "Bench.h"

#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr float MaxBound = 16.0f;
constexpr int WindowMask = 5; ///< All-ones mask of the window max.

std::vector<std::vector<float>> makeMasks(kf::Rng &R) {
  const float B = 1.0f / 16.0f, S = 1.0f / 8.0f, Box = 1.0f / 9.0f;
  std::vector<std::vector<float>> Masks = {
      {B, 2 * B, B, 2 * B, 4 * B, 2 * B, B, 2 * B, B},
      {Box, Box, Box, Box, Box, Box, Box, Box, Box},
      {-S, 0, S, -2 * S, 0, 2 * S, -S, 0, S},
      {-S, -2 * S, -S, 0, 0, 0, S, 2 * S, S},
      {},
      {1, 1, 1, 1, 1, 1, 1, 1, 1}};
  float Sum = 0.0f;
  std::vector<float> Raw(9);
  for (float &W : Raw) {
    W = static_cast<float>(1 + R.nextBelow(8));
    Sum += W;
  }
  for (float W : Raw)
    Masks[4].push_back(W / Sum);
  return Masks;
}

std::string num(float V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.9g", static_cast<double>(V));
  return Buf;
}

const char *edgeName(Edge E) {
  switch (E) {
  case Edge::Clamp:
    return "clamp";
  case Edge::Mirror:
    return "mirror";
  case Edge::Repeat:
    return "repeat";
  case Edge::Constant:
    return "constant";
  }
  return "clamp";
}

std::string nodeName(const GenPipeline &G, int I) {
  return (I < G.NumInputs ? "in" : "v") + std::to_string(I);
}

const char *binaryName(GenOp Op) {
  switch (Op) {
  case GenOp::Add:
    return "add";
  case GenOp::Sub:
    return "sub";
  case GenOp::Mul:
    return "mul";
  case GenOp::Min:
    return "min";
  default:
    return "max";
  }
}

std::string lazyText(const GenPipeline &G, const std::vector<int> &UsedMasks) {
  std::string T = "# generated pipeline " + G.Name + "\n";
  for (int I = 0; I != G.NumInputs; ++I)
    T += "input " + nodeName(G, I) + " " + std::to_string(G.Width) + " " +
         std::to_string(G.Height) + "\n";
  for (int M : UsedMasks) {
    T += "mask m" + std::to_string(M) + " 3 3";
    for (float W : G.Masks[M])
      T += " " + num(W);
    T += "\n";
  }
  for (int I = G.NumInputs; I != static_cast<int>(G.Nodes.size()); ++I) {
    const GenNode &N = G.Nodes[I];
    std::string A = nodeName(G, N.A);
    T += nodeName(G, I) + " = ";
    switch (N.Op) {
    case GenOp::Abs:
      T += "abs " + A;
      break;
    case GenOp::Scale:
      T += "mul " + num(N.Imm) + " " + A;
      break;
    case GenOp::Offset:
      T += std::string(N.Imm < 0 ? "sub " : "add ") + A + " " +
           num(std::fabs(N.Imm));
      break;
    case GenOp::Conv:
    case GenOp::WindowMax:
      T += std::string(N.Op == GenOp::Conv ? "conv" : "reduce_max") + " m" +
           std::to_string(N.Mask) + " " + A + " " + edgeName(N.Border);
      if (N.Border == Edge::Constant)
        T += " 0";
      break;
    default:
      T += std::string(binaryName(N.Op)) + " " + A + " " + nodeName(G, N.B);
      break;
    }
    T += "\n";
  }
  T += "output " + nodeName(G, G.Output) + "\n";
  return T;
}

std::string kfpText(const GenPipeline &G, const std::vector<int> &UsedMasks) {
  std::string T = "program " + G.Name + "\n\n";
  for (int I = 0; I != static_cast<int>(G.Nodes.size()); ++I)
    T += "image " + nodeName(G, I) + " " + std::to_string(G.Width) + " " +
         std::to_string(G.Height) + "\n";
  for (int M : UsedMasks) {
    T += "mask m" + std::to_string(M) + " 3 3 [";
    for (size_t K = 0; K != G.Masks[M].size(); ++K)
      T += (K ? " " : "") + num(G.Masks[M][K]);
    T += "]\n";
  }
  for (int I = G.NumInputs; I != static_cast<int>(G.Nodes.size()); ++I) {
    const GenNode &N = G.Nodes[I];
    std::string A = nodeName(G, N.A);
    bool Local = N.Op == GenOp::Conv || N.Op == GenOp::WindowMax;
    bool Binary = !Local && N.Op != GenOp::Abs && N.Op != GenOp::Scale &&
                  N.Op != GenOp::Offset;
    std::string Params = A;
    if (Binary && N.B != N.A)
      Params += ", " + nodeName(G, N.B);
    T += std::string("\n") + (Local ? "local" : "point") + " kernel k" +
         std::to_string(I) + "(" + Params + ") -> " + nodeName(G, I);
    if (Local) {
      T += std::string(" border ") + edgeName(N.Border);
      if (N.Border == Edge::Constant)
        T += " value 0";
    }
    T += " {\n  out = ";
    std::string B = Binary ? nodeName(G, N.B) : "";
    switch (N.Op) {
    case GenOp::Add:
      T += "(" + A + " + " + B + ")";
      break;
    case GenOp::Sub:
      T += "(" + A + " - " + B + ")";
      break;
    case GenOp::Mul:
      T += "(" + A + " * " + B + ")";
      break;
    case GenOp::Min:
    case GenOp::Max:
      T += std::string(binaryName(N.Op)) + "(" + A + ", " + B + ")";
      break;
    case GenOp::Abs:
      T += "abs(" + A + ")";
      break;
    case GenOp::Scale:
      T += "(" + num(N.Imm) + " * " + A + ")";
      break;
    case GenOp::Offset:
      T += "(" + A + (N.Imm < 0 ? " - " : " + ") + num(std::fabs(N.Imm)) +
           ")";
      break;
    case GenOp::Conv:
      T += "sum(m" + std::to_string(N.Mask) + ", (mv * " + A + "[]))";
      break;
    case GenOp::WindowMax:
      T += "reduce_max(m" + std::to_string(N.Mask) + ", " + A + "[])";
      break;
    case GenOp::Input:
      break;
    }
    T += "\n}\n";
  }
  return T;
}

} // namespace

GenPipeline generatePipeline(uint64_t Seed, int Index, int Width, int Height) {
  kf::Rng R(mixSeed(Seed, 0x6e6e00 + static_cast<uint64_t>(Index)));
  GenPipeline G;
  G.Name = "gen" + std::to_string(Index);
  G.Width = Width;
  G.Height = Height;
  G.Lazy = Index % 2 == 0;
  G.Masks = makeMasks(R);
  G.NumInputs = 1 + (Index / 2) % 2;
  G.Nodes.resize(G.NumInputs);

  // Values no op reads yet; the generator prefers them as operands so
  // that few need folding into the output at the end.
  std::vector<int> Open;
  for (int I = 0; I != G.NumInputs; ++I)
    Open.push_back(I);
  auto pickOperand = [&](int Avoid) {
    std::vector<int> Pool;
    for (int V : Open)
      if (V != Avoid)
        Pool.push_back(V);
    if (!Pool.empty() && R.nextDouble() < 0.7)
      return Pool[R.nextBelow(Pool.size())];
    return static_cast<int>(R.nextBelow(G.Nodes.size()));
  };
  auto push = [&](GenNode N) {
    std::erase(Open, N.A);
    std::erase(Open, N.B);
    Open.push_back(static_cast<int>(G.Nodes.size()));
    G.Nodes.push_back(N);
  };

  const int NumOps = 5 + Index % 8;
  for (int K = 0; K != NumOps; ++K) {
    GenNode N;
    N.A = pickOperand(-1);
    const GenNode &A = G.Nodes[N.A];
    double Draw = R.nextDouble();
    if (Draw < 0.4 && A.Reach < MaxReach) {
      bool Conv = Draw < 0.3;
      N.Op = Conv ? GenOp::Conv : GenOp::WindowMax;
      N.Mask = Conv ? static_cast<int>(R.nextBelow(5)) : WindowMask;
      // Clamp, mirror or repeat. A constant-0 border is left out: the
      // optimizer decides min/max from intervals that miss the zero taps
      // outside the image, so such a pipeline can compute wrong border
      // pixels on some seeds (see FOUND in CHANGES.md).
      N.Border = static_cast<Edge>(R.nextBelow(3));
      N.Reach = A.Reach + 1;
      N.Bound = A.Bound;
    } else if (Draw < 0.8) {
      N.B = pickOperand(N.A);
      const GenNode &B = G.Nodes[N.B];
      static const GenOp Binary[] = {GenOp::Add, GenOp::Sub, GenOp::Mul,
                                     GenOp::Min, GenOp::Max};
      N.Op = Binary[R.nextBelow(5)];
      if (N.Op == GenOp::Mul && A.Bound * B.Bound > MaxBound)
        N.Op = GenOp::Min;
      if ((N.Op == GenOp::Add || N.Op == GenOp::Sub) &&
          A.Bound + B.Bound > MaxBound)
        N.Op = GenOp::Max;
      N.Reach = std::max(A.Reach, B.Reach);
      N.Bound = N.Op == GenOp::Mul   ? A.Bound * B.Bound
                : N.Op == GenOp::Add || N.Op == GenOp::Sub
                    ? A.Bound + B.Bound
                    : std::max(A.Bound, B.Bound);
    } else {
      static const float Scales[] = {0.5f, 0.25f, 0.75f};
      static const float Offsets[] = {0.25f, -0.25f, 0.5f, -0.5f, 0.125f};
      uint64_t Kind = R.nextBelow(3);
      N.Reach = A.Reach;
      if (Kind == 0) {
        N.Op = GenOp::Abs;
        N.Bound = A.Bound;
      } else if (Kind == 1 || A.Bound + 0.5f > MaxBound) {
        N.Op = GenOp::Scale;
        N.Imm = Scales[R.nextBelow(3)];
        N.Bound = A.Bound * N.Imm;
      } else {
        N.Op = GenOp::Offset;
        N.Imm = Offsets[R.nextBelow(5)];
        N.Bound = A.Bound + std::fabs(N.Imm);
      }
    }
    push(N);
  }
  // Fold the values nothing reads into one output.
  while (Open.size() > 1) {
    GenNode N;
    N.Op = GenOp::Max;
    N.A = Open[0];
    N.B = Open[1];
    N.Reach = std::max(G.Nodes[N.A].Reach, G.Nodes[N.B].Reach);
    N.Bound = std::max(G.Nodes[N.A].Bound, G.Nodes[N.B].Bound);
    push(N);
  }
  G.Output = Open[0];

  std::vector<int> UsedMasks;
  for (const GenNode &N : G.Nodes)
    if (N.Mask >= 0 &&
        std::find(UsedMasks.begin(), UsedMasks.end(), N.Mask) ==
            UsedMasks.end())
      UsedMasks.push_back(N.Mask);
  std::sort(UsedMasks.begin(), UsedMasks.end());
  G.Text = G.Lazy ? lazyText(G, UsedMasks) : kfpText(G, UsedMasks);
  return G;
}

kf::Image evaluatePipeline(const GenPipeline &G,
                           const std::vector<kf::Image> &Inputs) {
  std::vector<kf::Image> V(G.Nodes.size());
  for (int I = 0; I != G.NumInputs; ++I)
    V[I] = Inputs[I];
  for (int I = G.NumInputs; I != static_cast<int>(G.Nodes.size()); ++I) {
    const GenNode &N = G.Nodes[I];
    const kf::Image &A = V[N.A];
    if (N.Op == GenOp::Conv) {
      V[I] = convolve3x3(A, G.Masks[N.Mask], N.Border);
      continue;
    }
    kf::Image Out(A.width(), A.height(), A.channels());
    for (int Y = 0; Y != A.height(); ++Y)
      for (int X = 0; X != A.width(); ++X) {
        float Va = A.at(X, Y);
        float Vb = N.B >= 0 ? V[N.B].at(X, Y) : 0.0f;
        float R = 0.0f;
        switch (N.Op) {
        case GenOp::Add:
          R = Va + Vb;
          break;
        case GenOp::Sub:
          R = Va - Vb;
          break;
        case GenOp::Mul:
          R = Va * Vb;
          break;
        case GenOp::Min:
          R = std::min(Va, Vb);
          break;
        case GenOp::Max:
          R = std::max(Va, Vb);
          break;
        case GenOp::Abs:
          R = std::fabs(Va);
          break;
        case GenOp::Scale:
          R = N.Imm * Va;
          break;
        case GenOp::Offset:
          R = Va + N.Imm;
          break;
        case GenOp::WindowMax:
          R = sampleEdge(A, X - 1, Y - 1, 0, N.Border);
          for (int DY = -1; DY <= 1; ++DY)
            for (int DX = -1; DX <= 1; ++DX)
              R = std::max(R, sampleEdge(A, X + DX, Y + DY, 0, N.Border));
          break;
        case GenOp::Conv:
        case GenOp::Input:
          break;
        }
        Out.at(X, Y) = R;
      }
    V[I] = std::move(Out);
  }
  return V[G.Output];
}

} // namespace perfbench
