// Content keys of per-register miters (docs/eco.md).
//
// The KeyBuilder is the Encoder's hashing twin: ConeWalker and the
// prover's miter construction run over it exactly as they run over the
// Encoder, and every node it builds is a 128-bit hash of its truth table
// and its inputs' keys (leaves hash their names).  It collapses only what
// Encoder::table collapses without looking at the inputs: a single-input
// buffer passes its input's key through, an inverter complements it, a
// node without inputs is its constant.  Every other node is hashed with
// all its inputs in pin order, so no walked cone drops out of a key.  Two
// miters with equal keys therefore drive the Encoder through the same
// calls, up to repeats that add nothing: the same variables and clauses,
// and so the same verdict and the same solver statistics.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/hash.h"

namespace desync::sim::symfe {

/// One node's key.  `usable` is false when a cone below it failed (cycle,
/// unbound cell, too deep, ...): such a miter has no key and is never
/// looked up or stored.
struct KeyLit {
  util::CacheKey key;
  bool usable = true;

  /// Complement, an involution like sat::Lit's: ~~k == k.
  KeyLit operator~() const {
    return KeyLit{{key.hi ^ 0x6a09e667f3bcc908ULL,
                   key.lo ^ 0xbb67ae8584caa73bULL},
                  usable};
  }
};

class KeyBuilder {
 public:
  using Lit = KeyLit;
  static constexpr bool kModuleWide = true;  ///< one ConeWalker per module

  KeyLit constLit(bool value) {
    static const KeyLit kZero = [] {
      util::KeyHasher h;
      h.str("const");
      return KeyLit{h.key(), true};
    }();
    return value ? ~kZero : kZero;
  }

  KeyLit leaf(const std::string& key) {
    util::KeyHasher h;
    h.str("leaf");
    h.str(key);
    return KeyLit{h.key(), true};
  }

  KeyLit table(std::uint64_t table, std::span<const KeyLit> inputs) {
    const std::size_t n = inputs.size();
    if (n > 6) return failed("table node with more than 6 inputs");
    if (n < 6) table &= (std::uint64_t{1} << (1u << n)) - 1;
    if (n == 0) return constLit((table & 1) != 0);
    if (n == 1 && table == 0b10) return inputs[0];
    if (n == 1 && table == 0b01) return ~inputs[0];
    util::KeyHasher h;
    h.str("node");
    h.u64(table);
    h.u64(n);
    bool usable = true;
    for (const KeyLit& in : inputs) {
      h.absorb(in.key);
      usable = usable && in.usable;
    }
    return KeyLit{h.key(), usable};
  }

  KeyLit iteLit(const KeyLit& s, const KeyLit& t, const KeyLit& e) {
    const KeyLit in[] = {s, t, e};
    return table(0xD8, in);
  }

  KeyLit failed(const std::string& /*why*/) { return KeyLit{{}, false}; }
};

}  // namespace desync::sim::symfe
