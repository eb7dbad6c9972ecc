// The project's one deterministic pseudo-random source.
//
// One small PRNG, one place: the differential fuzzer (src/fuzz), the
// randomized property tests (netlist round-trip, SAT cross-check, STA
// conservativeness) and any future randomized harness draw from this
// header so that a seed printed in a failure message reproduces the
// identical byte stream everywhere.  The state update is the classic
// 64-bit LCG; outputs go through a murmur-style finalizer so low bits are
// usable too.  No global state, no time or
// hardware entropy: the same seed always yields the same sequence.
#pragma once

#include <cstdint>

namespace desync::util {

struct Rng {
  std::uint64_t s;  ///< seedable state; aggregate-init: Rng{seed}

  /// Next 64-bit value (full width, all bits usable).
  std::uint64_t operator()() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    std::uint64_t z = s;
    z ^= z >> 33;
    z *= 0xff51afd7ed558ccdull;
    z ^= z >> 33;
    return z;
  }

  /// Uniform draw in [0, n) without modulo bias: values below
  /// 2^64 mod n are rejected so every residue class is equally likely.
  /// n must be non-zero.
  std::uint64_t below(std::uint64_t n) {
    const std::uint64_t reject = (0 - n) % n;  // 2^64 mod n
    std::uint64_t v = (*this)();
    while (v < reject) v = (*this)();
    return v % n;
  }

  /// Uniform draw in [lo, hi], inclusive on both ends.
  int range(int lo, int hi) {
    return lo + static_cast<int>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// True with probability percent/100.
  bool chance(int percent) {
    return below(100) < static_cast<std::uint64_t>(percent);
  }
};

}  // namespace desync::util
