// Fundamental SIMT vocabulary types: warp width, lane masks, and per-lane
// register arrays.
//
// The simulator executes kernels *warp-synchronously*: a kernel phase is a C++
// callable invoked once per warp, with per-lane values held in LaneArray<T>
// (one slot per lane) and divergence expressed through explicit LaneMask
// active sets — the same mental model as CUDA's cooperative-groups /
// warp-intrinsic programming style the paper's kernels use.

#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace glp::sim {

/// Number of lanes in a warp. Fixed at 32 to match NVIDIA hardware and the
/// paper's intrinsics (__ballot_sync etc. return 32-bit masks).
inline constexpr int kWarpSize = 32;

/// A set of lanes, one bit per lane (bit i = lane i).
using LaneMask = uint32_t;

/// All 32 lanes active.
inline constexpr LaneMask kFullMask = 0xffffffffu;

/// Number of set bits — the simulator's __popc. Written out (SWAR) because
/// std::popcount becomes a library call on baseline x86-64 builds, and the
/// simulator counts lanes on every warp instruction.
inline int Popc(LaneMask m) {
  m = m - ((m >> 1) & 0x55555555u);
  m = (m & 0x33333333u) + ((m >> 2) & 0x33333333u);
  m = (m + (m >> 4)) & 0x0f0f0f0fu;
  return static_cast<int>((m * 0x01010101u) >> 24);
}

/// Index of the lowest set lane, or -1 if the mask is empty. Mirrors the
/// CUDA idiom `__ffs(mask) - 1` used to elect a leader lane.
inline int FirstLane(LaneMask m) {
  if (m == 0) return -1;
  return std::countr_zero(m);
}

/// True if lane `lane` is set in `m`.
inline bool LaneActive(LaneMask m, int lane) { return (m >> lane) & 1u; }

/// Mask with only `lane` set.
inline LaneMask LaneBit(int lane) { return 1u << lane; }

/// Tag for a LaneArray whose lanes are all written before any is read.
struct Uninit {};
inline constexpr Uninit kUninit{};

/// \brief One register slot per lane of a warp.
///
/// LaneArray is the simulator's model of a per-thread register: kernel code
/// declares `LaneArray<uint32_t> label;` and reads/writes `label[lane]` under
/// an active mask.
template <typename T>
struct LaneArray {
  std::array<T, kWarpSize> v;

  /// Zero in every lane, as kernels may read lanes they did not write.
  LaneArray() : v{} {}
  explicit LaneArray(T fill) { v.fill(fill); }
  /// Leaves the lanes unset: no zero-fill for a register that is about to
  /// be overwritten on every lane it is read at.
  explicit LaneArray(Uninit) {}

  T& operator[](int lane) { return v[lane]; }
  const T& operator[](int lane) const { return v[lane]; }

  void Fill(T x) { v.fill(x); }
};

/// Applies fn(lane) to every lane in `mask`, in lane order.
template <typename Fn>
inline void ForEachLane(LaneMask mask, Fn&& fn) {
  while (mask != 0) {
    const int lane = std::countr_zero(mask);
    fn(lane);
    mask &= mask - 1;
  }
}

}  // namespace glp::sim
