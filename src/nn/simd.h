// Fixed-width vectors of doubles for the network's kernels, written with
// the GCC/Clang vector extensions. The width follows the compile target's
// predefined macros: 8 lanes with AVX-512, 4 with AVX, 2 otherwise (SSE2 is
// the x86-64 baseline; elsewhere the compiler lowers what the target lacks).
// There is no runtime dispatch and nothing to configure.
//
// Each lane of a vector operation rounds exactly as the scalar operation on
// that lane, and `acc += a * b` contracts into a fused multiply-add exactly
// where the same scalar statement would (GCC's C++ default is
// -ffp-contract=fast; a build with FMA fuses both, one without fuses
// neither). A loop rewritten lane-wise over these types, keeping each
// element's expression and the order of its accumulation, therefore
// computes the same bits as the scalar loop it replaces.
//
// Private to src/nn: hfq_nn compiles with -fno-math-errno so that Sqrt
// becomes one vector square root (correctly rounded, like std::sqrt).
#ifndef HFQ_NN_SIMD_H_
#define HFQ_NN_SIMD_H_

#include <cmath>
#include <cstdint>
#include <cstring>

namespace hfq::simd {

#if defined(__AVX512F__)
inline constexpr int kLanes = 8;
#elif defined(__AVX__)
inline constexpr int kLanes = 4;
#else
inline constexpr int kLanes = 2;
#endif

template <int W>
struct VecOf {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};
template <>
struct VecOf<1> {
  typedef double type;
};

/// W doubles operated on as one value; Vec<1> is a plain double. Binary
/// operators accept a double on either side, applied to every lane.
template <int W>
using Vec = typename VecOf<W>::type;

/// Loads W consecutive doubles from `p` (no alignment needed).
template <int W>
inline Vec<W> Load(const double* p) {
  Vec<W> v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Stores W consecutive doubles to `p` (no alignment needed).
template <int W>
inline void Store(double* p, const Vec<W>& v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Lane-wise square root.
template <int W>
inline Vec<W> Sqrt(const Vec<W>& v) {
  if constexpr (W == 1) {
    return std::sqrt(v);
  } else {
    Vec<W> r{};
#pragma GCC unroll 16
    for (int l = 0; l < W; ++l) r[l] = std::sqrt(v[l]);
    return r;
  }
}

/// Calls `fn.template operator()<W>(i)` for i = 0, kLanes, 2 kLanes, ...
/// with W = kLanes while a whole vector fits in [0, n), then with W = 1
/// for each remaining index: an elementwise pass over n doubles in which
/// every element sees the same operations, vector or scalar.
template <typename Fn>
inline void ForEach(int64_t n, Fn&& fn) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) fn.template operator()<kLanes>(i);
  for (; i < n; ++i) fn.template operator()<1>(i);
}

}  // namespace hfq::simd

#endif  // HFQ_NN_SIMD_H_
