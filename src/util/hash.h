// The project's one non-cryptographic hash.
//
// Fnv64 is a streaming FNV-1a variant that folds eight bytes per multiply:
// FlowDB snapshots and cache entries are megabytes, and the canonical
// byte-at-a-time loop's serial multiply chain (~150 MB/s) would make warm
// cache lookups as expensive as the passes they skip.  Words are assembled
// from bytes with explicit little-endian shifts, so digests are byte-order
// independent.  Uses: FlowDB's artifact checksums and 128-bit
// content-addressed cache keys (KeyHasher: two independent streams, far
// below collision range for a cache holding at most a few thousand entries
// per design), ECO record digests, the liberty content fingerprint,
// variability's per-cell draws and the STG state-space hash sets.
// splitmix64 is the one bit mixer (seed derivation, hashed draws).  Keys
// are not a security boundary — the cache directory is trusted local
// state.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace desync::util {

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit bit mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Incremental 64-bit hash (word-folding FNV-1a variant).  Digests depend
/// on the sequence of update() calls, not just the concatenated bytes;
/// every producer/consumer pair hashes the same structured call sequence,
/// so this is free determinism-wise and saves a byte-exact streaming
/// buffer.
class Fnv64 {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  constexpr explicit Fnv64(std::uint64_t seed = kOffset) : state_(seed) {}

  void update(std::string_view bytes) {
    std::uint64_t h = state_;
    std::size_t i = 0;
    // Eight bytes per multiply; the word is assembled with shifts, never a
    // memcpy of host-endian memory, so the digest is platform-independent.
    for (; i + 8 <= bytes.size(); i += 8) {
      std::uint64_t w = 0;
      for (int b = 0; b < 8; ++b) {
        w |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes[i + b]))
             << (8 * b);
      }
      h ^= w;
      h *= kPrime;
    }
    for (; i < bytes.size(); ++i) {
      h ^= static_cast<std::uint8_t>(bytes[i]);
      h *= kPrime;
    }
    state_ = h;
  }
  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    update(std::string_view(b, 8));
  }
  /// Length-prefixed, so ("ab","c") never collides with ("a","bc").
  void str(std::string_view s) {
    u64(s.size());
    update(s);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_;
};

/// 128-bit content-addressed cache key.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) {
    return !(a == b);
  }

  /// 32 lowercase hex characters; used as the cache entry file stem.
  [[nodiscard]] std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      out[i] = kDigits[(hi >> (60 - 4 * i)) & 0xf];
      out[16 + i] = kDigits[(lo >> (60 - 4 * i)) & 0xf];
    }
    return out;
  }
};

/// Two-lane streaming hasher producing a CacheKey.  The lanes differ only
/// in their seed, which is sufficient independence for cache addressing.
class KeyHasher {
 public:
  KeyHasher() : a_(Fnv64::kOffset), b_(0x9e3779b97f4a7c15ULL) {}

  void update(std::string_view bytes) {
    a_.update(bytes);
    b_.update(bytes);
  }
  void u64(std::uint64_t v) {
    a_.u64(v);
    b_.u64(v);
  }
  void u32(std::uint32_t v) { u64(v); }
  void str(std::string_view s) {
    a_.str(s);
    b_.str(s);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] CacheKey key() const {
    return CacheKey{a_.digest(), b_.digest()};
  }
  /// Chain helper: absorb a previously computed key.
  void absorb(const CacheKey& k) {
    u64(k.hi);
    u64(k.lo);
  }

 private:
  Fnv64 a_;
  Fnv64 b_;
};

}  // namespace desync::util
