// Hash-consed canonical Tseitin encoder over sat::Solver.
//
// Circuit cones are encoded bottom-up through `table()`, which takes a
// liberty truth table (bit r = output for input row r, input i contributing
// bit i of r — the same convention as sim/value.h's evalTable3) and the
// already-encoded input literals.  Every node is canonicalized before
// allocation: constant inputs are cofactored away, duplicate/complementary
// inputs merged, vacuous inputs dropped, single-input identities and
// inverters returned as (negated) literals, input phases normalized to
// positive variables, inputs sorted by variable index, and the output phase
// normalized so a function and its complement share one variable.  Two
// cones computing the same function of the same leaves therefore collapse
// to the same literal — which is what makes the sync/desync miters of
// untouched logic trivially UNSAT (often equal literals, no SAT call).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sat/solver.h"
#include "sim/symfe/cones.h"

namespace desync::sim::symfe {

class Encoder {
 public:
  using Lit = sat::Lit;
  static constexpr bool kModuleWide = false;  ///< one ConeWalker per proof

  explicit Encoder(sat::Solver& solver) : solver_(solver) {}

  /// Constant literal (lazily reserves one variable fixed true).
  sat::Lit constLit(bool value);

  /// True when `l` is the constant literal; sets `value` accordingly.
  [[nodiscard]] bool isConst(sat::Lit l, bool& value) const;

  /// Leaf variable keyed by name ("in:<net>", "reg:<ff>", "net:<net>").
  /// The same key always returns the same literal, which is how the sync
  /// and desync cones of one register are built over shared inputs/state.
  sat::Lit leaf(const std::string& key);

  /// Canonicalized node for `table` over `inputs` (n <= 6).
  sat::Lit table(std::uint64_t table, std::vector<sat::Lit> inputs);
  sat::Lit table(std::uint64_t t, std::span<const sat::Lit> inputs) {
    return table(t, std::vector<sat::Lit>(inputs.begin(), inputs.end()));
  }

  sat::Lit andLit(sat::Lit a, sat::Lit b) { return table(0x8, {a, b}); }
  sat::Lit orLit(sat::Lit a, sat::Lit b) { return table(0xE, {a, b}); }
  sat::Lit xorLit(sat::Lit a, sat::Lit b) { return table(0x6, {a, b}); }
  /// s ? t : e  (inputs s,t,e at row-bit positions 0,1,2 -> table 0xD8).
  sat::Lit iteLit(sat::Lit s, sat::Lit t, sat::Lit e) {
    return table(0xD8, {s, t, e});
  }

  /// A cone that cannot be encoded (ConeWalker's failure hook): the
  /// register's proof is skipped with `why` as the reason.
  [[noreturn]] sat::Lit failed(const std::string& why) {
    throw ConeError(why);
  }

  /// Leaf keys -> variables, ordered by key (deterministic model decode).
  [[nodiscard]] const std::map<std::string, sat::Var>& leaves() const {
    return leaves_;
  }
  [[nodiscard]] std::size_t nodes() const { return nodes_; }

 private:
  struct NodeKey {
    std::uint64_t table = 0;
    std::vector<std::int32_t> ins;
    bool operator==(const NodeKey& o) const {
      return table == o.table && ins == o.ins;
    }
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const {
      std::uint64_t h = k.table * 0x9e3779b97f4a7c15ull;
      for (std::int32_t v : k.ins) {
        h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) +
             0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      }
      return static_cast<std::size_t>(h);
    }
  };

  sat::Solver& solver_;
  sat::Lit true_lit_ = sat::kLitUndef;
  std::map<std::string, sat::Var> leaves_;
  std::unordered_map<NodeKey, sat::Lit, NodeKeyHash> nodes_map_;
  std::size_t nodes_ = 0;
};

}  // namespace desync::sim::symfe
