// Scalar golden implementations of 2D/3D stencil application.
#pragma once

#include <vector>

#include "common/grid.hpp"
#include "common/types.hpp"

namespace ssam::ref {

/// One stencil tap: output(x,y,z) += coeff * input(x+dx, y+dy, z+dz).
template <typename T>
struct Tap {
  int dx = 0;
  int dy = 0;
  int dz = 0;
  T coeff{};
};

/// Applies one step of a 2D stencil.
template <typename T>
void stencil2d(const GridView2D<const T>& in, const std::vector<Tap<T>>& taps,
               GridView2D<T> out, Border border = Border::kClamp) {
  for (Index y = 0; y < in.height(); ++y) {
    for (Index x = 0; x < in.width(); ++x) {
      T acc{};
      for (const auto& t : taps) acc += t.coeff * in.read(x + t.dx, y + t.dy, border);
      out.at(x, y) = acc;
    }
  }
}

/// Applies one step of a 3D stencil.
template <typename T>
void stencil3d(const GridView3D<const T>& in, const std::vector<Tap<T>>& taps,
               GridView3D<T> out, Border border = Border::kClamp) {
  for (Index z = 0; z < in.nz(); ++z) {
    for (Index y = 0; y < in.ny(); ++y) {
      for (Index x = 0; x < in.nx(); ++x) {
        T acc{};
        for (const auto& t : taps) {
          acc += t.coeff * in.read(x + t.dx, y + t.dy, z + t.dz, border);
        }
        out.at(x, y, z) = acc;
      }
    }
  }
}

/// Runs `steps` iterations of a 2D stencil with double buffering; the result
/// ends in `a`.
template <typename T>
void iterate2d(Grid2D<T>& a, Grid2D<T>& b, const std::vector<Tap<T>>& taps, int steps,
               Border border = Border::kClamp) {
  for (int s = 0; s < steps; ++s) {
    stencil2d<T>(a.cview(), taps, b.view(), border);
    std::swap(a, b);
  }
}

}  // namespace ssam::ref
