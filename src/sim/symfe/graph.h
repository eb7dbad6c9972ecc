// One structurally hashed node graph per design pair, built by one cone
// walk per module, and the CNF of one miter read from it.
//
// Every node is canonicalized before it is made: constant inputs are
// cofactored away, duplicate and complementary inputs merged, vacuous
// inputs dropped, single-input identities and inverters returned as
// (complemented) literals, input phases made positive, inputs sorted by
// their content hash, and the output phase normalized so a function and
// its complement share one node.  Each node carries a 128-bit content hash
// of its canonical table and its inputs' hashes (a leaf's is its kind and
// name), and the graph keeps one node per canonical content, found by
// that hash and confirmed by comparing the content itself.  Two cones
// computing the same function of the same leaves are therefore one
// literal, whichever module and whichever register they were walked from
// — which is what makes the sync/desync miters of untouched logic
// trivially equal — and a literal's hash, its canonical form and the CNF
// read from it depend only on the cone's content, never on node ids or on
// the order of the walk.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "liberty/bound.h"
#include "netlist/netlist.h"
#include "sat/solver.h"
#include "util/hash.h"

namespace desync::sim::symfe {

/// A graph literal: node index * 2 + complement bit.  Node 0 is the
/// constant false, so kFalse / kTrue are literals 0 / 1.
struct NodeLit {
  std::uint32_t x = 0;

  [[nodiscard]] std::uint32_t node() const { return x >> 1; }
  [[nodiscard]] bool negated() const { return (x & 1) != 0; }
  friend NodeLit operator~(NodeLit l) { return NodeLit{l.x ^ 1}; }
  friend bool operator==(NodeLit a, NodeLit b) { return a.x == b.x; }
};

inline constexpr NodeLit kFalse{0};
inline constexpr NodeLit kTrue{1};

/// The three leaf kinds, shared by both modules so the sync and desync
/// cones of one register meet over the same leaves.
enum class LeafKind : std::uint8_t {
  kInput,  ///< primary input (port-driven net), "in:<net>"
  kState,  ///< old register state (sync FF Q / desync *_Ls Q), "reg:<ff>"
  kFree,   ///< undriven net, "net:<net>"
};

class ProofGraph {
 public:
  /// A graph sized for about `nodes` nodes (it grows past that as needed).
  explicit ProofGraph(std::size_t nodes = 0);

  /// The leaf of `kind` named `name`; the same pair is always one node.
  NodeLit leaf(LeafKind kind, std::string_view name);
  /// The leaf's literal if it was made, nullopt otherwise.
  [[nodiscard]] std::optional<NodeLit> findLeaf(LeafKind kind,
                                                std::string_view name) const;

  /// Canonical node for liberty truth table `t` (bit r = output for input
  /// row r, input i contributing bit i of r) over `inputs` (at most 6).
  NodeLit table(std::uint64_t t, std::span<const NodeLit> inputs);

  /// s ? t : e  (inputs s,t,e at row-bit positions 0,1,2 -> table 0xD8).
  NodeLit iteLit(NodeLit s, NodeLit t, NodeLit e) {
    const NodeLit in[] = {s, t, e};
    return table(0xD8, in);
  }

  /// Content hash of a literal: its node's hash, complemented for ~.
  [[nodiscard]] util::CacheKey hash(NodeLit l) const;

  /// Nodes made so far, the constant included.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  friend class Cnf;
  struct Node {
    std::uint64_t table = 0;  ///< canonical: row 0 -> 0, inputs sorted
    std::uint32_t in = 0;     ///< first input in inputs_
    std::uint32_t n = 0;      ///< inputs; 0 for the constant and leaves
  };

  NodeLit add(const util::CacheKey& hash, std::uint64_t table,
              std::span<const NodeLit> inputs);
  /// Position in slots_ of the gate node with `hash`, table `t` and
  /// inputs `in`, or of the empty slot where it would go.
  [[nodiscard]] std::size_t slot(const util::CacheKey& hash, std::uint64_t t,
                                 std::span<const NodeLit> in) const;

  std::vector<Node> nodes_;
  std::vector<NodeLit> inputs_;  ///< every node's inputs, in node order
  /// Content hash per node, apart from nodes_: the walk reads only these.
  std::vector<util::CacheKey> hashes_;
  /// Leaves by kind (first byte) and name.
  std::unordered_map<std::string, NodeLit> leaves_;
  /// Open-addressed unique table of gate nodes: node index + 1, 0 when
  /// empty (linear probing, at most half full).  A hit needs equal content
  /// as well as an equal hash, so a hash collision costs a duplicate node,
  /// never two functions merged into one.
  std::vector<std::uint32_t> slots_;
};

/// True for the raw region enable nets G<g>_gm / G<g>_gs the controllers
/// drive.  On the desync side a cone walk cuts there: at the settled
/// pre-capture instant the handshake has granted the phase, so the enable
/// is true — and everything behind it (controllers, delay elements) is the
/// protocol's concern, checked separately via token flow.
bool isRawEnableNet(std::string_view name);

/// A gate whose inputs a net walk visits one at a time, in pin order: a
/// combinational output (`out`), or a transparent latch (`out` null) whose
/// one input is its data net `d`.  The walks keep these on a stack, not on
/// the call stack, so a cone of any depth is walked.
struct GateFrame {
  netlist::NetId net;
  netlist::CellId cell;
  const liberty::BoundOutput* out = nullptr;
  netlist::NetId d;
  std::uint32_t base = 0;  ///< its first input value on the walk's stack
  std::uint32_t next = 0;  ///< inputs visited so far

  [[nodiscard]] unsigned arity() const {
    return out != nullptr ? static_cast<unsigned>(out->inputs.size()) : 1;
  }
  /// Net of the next input (invalid when unconnected); advances.
  netlist::NetId nextInput(const liberty::BoundModule& bound) {
    const std::uint32_t i = next++;
    return out != nullptr ? bound.pinNet(cell, out->inputs[i]) : d;
  }
};

/// Memoized walk of one module's combinational fan-in cones into the
/// graph; one walker serves every register of its module.  The net
/// classification lives only here:
///   port-driven net    -> kInput leaf named after the net
///   flip-flop output   -> kState leaf named after the cell (QN: ~leaf)
///   undriven net       -> kFree leaf named after the net
/// Desync-side rules: raw enable nets cut to constant true, *_Ls slave
/// latches become state leaves of their register, every other
/// substitution latch (_Lm, _cenLm, _cenLs) is transparent at the
/// pre-capture instant.
class ConeWalker {
 public:
  ConeWalker(const liberty::BoundModule& bound, ProofGraph& graph,
             bool desync_side);

  /// Literal of `net`'s cone, or nullopt when the cone cannot be expressed
  /// combinationally (cycle, clock gate in a data path, latch on the
  /// synchronous side, unbound cell); error() then says why.  Only
  /// successful cones are memoized, so the outcome and the message are
  /// what a walker that saw only this task's roots would give.
  std::optional<NodeLit> literalFor(netlist::NetId net);
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  enum class State : std::uint8_t { kNew, kExpanding, kDone };
  struct Entry {
    NodeLit lit;
    State state = State::kNew;
  };
  enum class Step : std::uint8_t { kDone, kPushed, kFailed };
  /// Visits `net`: its literal into `lit` when memoized or a leaf (kDone),
  /// its gate's frame onto stack_ (kPushed), or error_ set (kFailed).
  Step enter(netlist::NetId net, NodeLit& lit);
  Step fail(std::string why) {
    error_ = std::move(why);
    return Step::kFailed;
  }

  const liberty::BoundModule& bound_;
  const netlist::Module& module_;
  ProofGraph& graph_;
  bool desync_side_;
  std::vector<Entry> memo_;  ///< per net index
  std::vector<GateFrame> stack_;  ///< gates being walked
  std::vector<NodeLit> inputs_;  ///< their input literals so far
  std::string error_;
};

/// One miter's CNF in a fresh solver: each node of a literal's cone gets a
/// variable on first use, allocated in a depth-first walk in canonical
/// input order (inputs before the node), and a node's clauses are its
/// full truth table, one clause per row.  The CNF of a literal is thus a
/// function of its content hash alone.
class Cnf {
 public:
  Cnf(const ProofGraph& graph, sat::Solver& solver)
      : graph_(graph), solver_(solver) {}

  /// Solver literal of `l`, encoding its cone first if needed.
  sat::Lit lit(NodeLit l) { return sat::mkLit(encode(l.node()), l.negated()); }
  /// Solver literal of `l` if its node was encoded, nullopt otherwise.
  [[nodiscard]] std::optional<sat::Lit> find(NodeLit l) const;

 private:
  sat::Var encode(std::uint32_t node);

  const ProofGraph& graph_;
  sat::Solver& solver_;
  std::unordered_map<std::uint32_t, sat::Var> vars_;
};

}  // namespace desync::sim::symfe
