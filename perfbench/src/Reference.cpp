//===- perfbench/src/Reference.cpp - Hand-written reference loops ---------===//

#include "Reference.h"

#include <cmath>

namespace perfbench {

static int mapIndex(int I, int N, Edge Mode) {
  if (I >= 0 && I < N)
    return I;
  switch (Mode) {
  case Edge::Clamp:
    return I < 0 ? 0 : N - 1;
  case Edge::Mirror: { // edge pixel repeated: -1 -> 0, N -> N-1
    int M = ((I % (2 * N)) + 2 * N) % (2 * N);
    return M < N ? M : 2 * N - 1 - M;
  }
  case Edge::Repeat:
    return ((I % N) + N) % N;
  case Edge::Constant:
    return -1;
  }
  return -1;
}

float sampleEdge(const kf::Image &Img, int X, int Y, int C, Edge Mode,
                 float Value) {
  int MX = mapIndex(X, Img.width(), Mode), MY = mapIndex(Y, Img.height(), Mode);
  if (MX < 0 || MY < 0)
    return Value;
  return Img.at(MX, MY, C);
}

kf::Image convolve3x3(const kf::Image &In, const std::vector<float> &W,
                      Edge Mode, float Value) {
  kf::Image Out(In.width(), In.height(), In.channels());
  for (int Y = 0; Y != In.height(); ++Y)
    for (int X = 0; X != In.width(); ++X)
      for (int C = 0; C != In.channels(); ++C) {
        float Acc = 0.0f;
        for (int DY = -1; DY <= 1; ++DY)
          for (int DX = -1; DX <= 1; ++DX)
            Acc += W[(DY + 1) * 3 + DX + 1] *
                   sampleEdge(In, X + DX, Y + DY, C, Mode, Value);
        Out.at(X, Y, C) = Acc;
      }
  return Out;
}

kf::Image referenceSobel(const kf::Image &In) {
  const float S = 1.0f / 8.0f;
  kf::Image DX = convolve3x3(In, {-S, 0, S, -2 * S, 0, 2 * S, -S, 0, S},
                             Edge::Clamp);
  kf::Image DY = convolve3x3(In, {-S, -2 * S, -S, 0, 0, 0, S, 2 * S, S},
                             Edge::Clamp);
  kf::Image Mag(In.width(), In.height());
  for (size_t I = 0; I != Mag.data().size(); ++I) {
    float A = DX.data()[I], B = DY.data()[I];
    Mag.data()[I] = std::sqrt(A * A + B * B);
  }
  return Mag;
}

kf::Image referenceUnsharp(const kf::Image &In) {
  const float S = 1.0f / 16.0f;
  kf::Image Blur = convolve3x3(
      In, {S, 2 * S, S, 2 * S, 4 * S, 2 * S, S, 2 * S, S}, Edge::Clamp);
  kf::Image Out(In.width(), In.height());
  for (size_t I = 0; I != Out.data().size(); ++I) {
    float V = In.data()[I];
    float Hi = V - Blur.data()[I];
    Out.data()[I] = V + 1.5f * (Hi * (V * V));
  }
  return Out;
}

} // namespace perfbench
