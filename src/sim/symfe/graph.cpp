// Proof graph, cone walk and miter CNF (see graph.h).
#include "sim/symfe/graph.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <stdexcept>

namespace desync::sim::symfe {

namespace {

std::uint64_t tableMask(unsigned n) {
  return n >= 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1u << n)) - 1;
}

bool tableBit(std::uint64_t t, unsigned row) { return ((t >> row) & 1) != 0; }

/// Rows whose input i is 0, as a mask over the 64 rows of a table.
constexpr std::uint64_t kLow[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};

/// True when the function does not read input i (of n): every row with
/// input i = 0 has the output of its twin with input i = 1.
bool vacuous(std::uint64_t t, unsigned n, unsigned i) {
  const std::uint64_t low = kLow[i] & tableMask(n);
  return (t & low) == ((t >> (1u << i)) & low);
}

/// Removes input i, keeping the rows where input i == b.
std::uint64_t cofactor(std::uint64_t t, unsigned n, unsigned i, bool b) {
  std::uint64_t out = 0;
  for (unsigned r = 0; r < (1u << (n - 1)); ++r) {
    const unsigned low = r & ((1u << i) - 1);
    const unsigned high = (r >> i) << (i + 1);
    const unsigned full = high | (b ? (1u << i) : 0u) | low;
    if (tableBit(t, full)) out |= std::uint64_t{1} << r;
  }
  return out;
}

/// Substitutes input j := input i (or its complement) and removes input j.
/// Requires i < j so reduced-row bit positions below j are unchanged.
std::uint64_t mergeInput(std::uint64_t t, unsigned n, unsigned i, unsigned j,
                         bool same) {
  const std::uint64_t low = kLow[i] & tableMask(n - 1);  // rows with i = 0
  const std::uint64_t c0 = cofactor(t, n, j, !same);  // j's value at i = 0
  const std::uint64_t c1 = cofactor(t, n, j, same);   // j's value at i = 1
  return (c0 & low) | (c1 & ~low & tableMask(n - 1));
}

/// Flips the polarity of input i (swaps its cofactors).
std::uint64_t flipInput(std::uint64_t t, unsigned i) {
  const unsigned shift = 1u << i;
  return ((t & kLow[i]) << shift) | ((t >> shift) & kLow[i]);
}

/// Exchanges inputs i < j: rows with input i = 1, j = 0 trade places with
/// their twins with input i = 0, j = 1.
std::uint64_t swapInputs(std::uint64_t t, unsigned i, unsigned j) {
  const unsigned shift = (1u << j) - (1u << i);
  const std::uint64_t a = ~kLow[i] & kLow[j];
  const std::uint64_t b = a << shift;
  return (t & ~(a | b)) | ((t >> shift) & a) | ((t << shift) & b);
}

/// Removes element i of the first n.
void eraseAt(NodeLit* in, unsigned& n, unsigned i) {
  std::copy(in + i + 1, in + n, in + i);
  --n;
}

bool hashLess(const util::CacheKey& a, const util::CacheKey& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

// Domain tags of the content hashes.
constexpr std::uint64_t kConstTag = 0x636f6e7374ULL;  // "const"
constexpr std::uint64_t kLeafTag = 0x6c656166ULL;     // "leaf"
constexpr std::uint64_t kNodeTag = 0x6e6f6465ULL;     // "node"

util::CacheKey leafHash(LeafKind kind, std::string_view name) {
  util::KeyHasher h;
  h.u64(kLeafTag);
  h.u64(static_cast<std::uint64_t>(kind));
  h.str(name);
  return h.key();
}

std::string leafKey(LeafKind kind, std::string_view name) {
  std::string key(1, static_cast<char>(kind));
  return key += name;
}

}  // namespace

// ---------------------------------------------------------------- graph

ProofGraph::ProofGraph(std::size_t nodes)
    : slots_(std::bit_ceil(std::max<std::size_t>(2 * nodes, 1024)), 0) {
  nodes_.reserve(nodes);
  hashes_.reserve(nodes);
  inputs_.reserve(3 * nodes);
  util::KeyHasher h;
  h.u64(kConstTag);
  add(h.key(), 0, {});
}

NodeLit ProofGraph::add(const util::CacheKey& hash, std::uint64_t table,
                        std::span<const NodeLit> inputs) {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{table, static_cast<std::uint32_t>(inputs_.size()),
                        static_cast<std::uint32_t>(inputs.size())});
  inputs_.insert(inputs_.end(), inputs.begin(), inputs.end());
  hashes_.push_back(hash);
  return NodeLit{id << 1};
}

std::size_t ProofGraph::slot(const util::CacheKey& hash, std::uint64_t t,
                             std::span<const NodeLit> in) const {
  const std::size_t mask = slots_.size() - 1;
  // FNV's low bits mix poorly, and the table is a power of two.
  std::size_t i = static_cast<std::size_t>(util::splitmix64(hash.lo)) & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const std::uint32_t k = slots_[i] - 1;
    const Node& node = nodes_[k];
    if (hashes_[k] == hash && node.table == t && node.n == in.size() &&
        std::equal(in.begin(), in.end(), inputs_.begin() + node.in)) {
      break;
    }
  }
  return i;
}

NodeLit ProofGraph::leaf(LeafKind kind, std::string_view name) {
  const auto [it, fresh] = leaves_.try_emplace(leafKey(kind, name));
  if (fresh) it->second = add(leafHash(kind, name), 0, {});
  return it->second;
}

std::optional<NodeLit> ProofGraph::findLeaf(LeafKind kind,
                                            std::string_view name) const {
  const auto it = leaves_.find(leafKey(kind, name));
  if (it == leaves_.end()) return std::nullopt;
  return it->second;
}

util::CacheKey ProofGraph::hash(NodeLit l) const {
  util::CacheKey k = hashes_[l.node()];
  if (l.negated()) {
    k.hi ^= 0x6a09e667f3bcc908ULL;
    k.lo ^= 0xbb67ae8584caa73bULL;
  }
  return k;
}

NodeLit ProofGraph::table(std::uint64_t t, std::span<const NodeLit> inputs) {
  if (inputs.size() > 6) {
    throw std::logic_error("symfe: table node with more than 6 inputs");
  }
  NodeLit in[6];
  unsigned n = static_cast<unsigned>(inputs.size());
  std::copy(inputs.begin(), inputs.end(), in);
  t &= tableMask(n);

  // (1)-(3), one reduction at a time until none applies: cofactor away a
  // constant input or a vacuous one (equal cofactors), merge duplicate /
  // complementary inputs.  What remains is the function's support, so
  // the order of the reductions does not matter.
  for (bool reduced = true; reduced;) {
    reduced = false;
    for (unsigned i = 0; i < n && !reduced; ++i) {
      if (in[i].node() == 0 || vacuous(t, n, i)) {
        t = cofactor(t, n, i, in[i] == kTrue);
        eraseAt(in, n, i);
        reduced = true;
      }
    }
    for (unsigned i = 0; i < n && !reduced; ++i) {
      for (unsigned j = i + 1; j < n && !reduced; ++j) {
        if (in[i].node() == in[j].node()) {
          t = mergeInput(t, n, i, j, in[i] == in[j]);
          eraseAt(in, n, j);
          reduced = true;
        }
      }
    }
  }
  // (4) Base cases.
  if (n == 0) return (t & 1) != 0 ? kTrue : kFalse;
  if (n == 1) return t == 0b10 ? in[0] : ~in[0];
  // (5) Input-phase normalization: all inputs positive.
  for (unsigned i = 0; i < n; ++i) {
    if (in[i].negated()) {
      t = flipInput(t, i);
      in[i] = ~in[i];
    }
  }
  // (6) Sort inputs by content hash (canonical argument order).
  for (unsigned k = 1; k < n; ++k) {
    for (unsigned j = k; j > 0 && hashLess(hashes_[in[j].node()],
                                           hashes_[in[j - 1].node()]);
         --j) {
      std::swap(in[j], in[j - 1]);
      t = swapInputs(t, j - 1, j);
    }
  }
  // (7) Output-phase normalization: stored tables have row 0 -> 0, so a
  // function and its complement share one node.
  const bool negate = (t & 1) != 0;
  if (negate) t = ~t & tableMask(n);

  util::KeyHasher h;
  h.u64(kNodeTag);
  h.u64(t);
  h.u64(n);
  for (unsigned k = 0; k < n; ++k) h.absorb(hashes_[in[k].node()]);
  const std::span<const NodeLit> ins(in, n);
  if (2 * nodes_.size() + 2 > slots_.size()) {
    slots_.assign(2 * slots_.size(), 0);
    for (std::uint32_t k = 1; k < nodes_.size(); ++k) {
      const Node& g = nodes_[k];
      if (g.n == 0) continue;  // a leaf: found through leaves_
      slots_[slot(hashes_[k], g.table, {&inputs_[g.in], g.n})] = k + 1;
    }
  }
  std::uint32_t& s = slots_[slot(h.key(), t, ins)];
  if (s == 0) s = add(h.key(), t, ins).node() + 1;
  const NodeLit lit{(s - 1) << 1};
  return negate ? ~lit : lit;
}

// ------------------------------------------------------------ cone walk

bool isRawEnableNet(std::string_view name) {
  if (name.size() < 4 || name[0] != 'G') return false;
  std::size_t i = 1;
  while (i < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[i]))) {
    ++i;
  }
  if (i == 1 || i + 3 != name.size()) return false;
  return name[i] == '_' && name[i + 1] == 'g' &&
         (name[i + 2] == 'm' || name[i + 2] == 's');
}

ConeWalker::ConeWalker(const liberty::BoundModule& bound, ProofGraph& graph,
                       bool desync_side)
    : bound_(bound), module_(bound.module()), graph_(graph),
      desync_side_(desync_side), memo_(module_.netCapacity()) {}

std::optional<NodeLit> ConeWalker::literalFor(netlist::NetId root) {
  // Post-order on stack_ (left over by a failed walk): a gate's literal is
  // made once its inputs' are on inputs_, visited in pin order.
  stack_.clear();
  inputs_.clear();
  NodeLit lit;
  Step step = enter(root, lit);
  while (step != Step::kFailed) {
    if (step == Step::kDone) {
      if (stack_.empty()) return lit;
      inputs_.push_back(lit);
    }
    GateFrame& f = stack_.back();
    if (f.next < f.arity()) {
      const netlist::NetId in = f.nextInput(bound_);
      step = in.valid() ? enter(in, lit)
                        : fail("symfe: unconnected input on " +
                               std::string(module_.cellName(f.cell)));
      continue;
    }
    const auto ins = std::span<const NodeLit>(inputs_).subspan(f.base);
    lit = f.out != nullptr ? graph_.table(f.out->table, ins) : ins[0];
    inputs_.resize(f.base);
    memo_[f.net.index()] = Entry{lit, State::kDone};
    stack_.pop_back();
    step = Step::kDone;
  }
  // A failure is not memoized: its message names the net where this walk
  // met it, which depends on where the walk entered the cone.
  for (const GateFrame& f : stack_) memo_[f.net.index()].state = State::kNew;
  return std::nullopt;
}

ConeWalker::Step ConeWalker::enter(netlist::NetId id, NodeLit& lit) {
  Entry& slot = memo_[id.index()];  // stable: memo_ is pre-sized
  const auto name = [&] { return module_.netName(id); };
  const auto done = [&](NodeLit l) {
    slot = Entry{l, State::kDone};
    lit = l;
    return Step::kDone;
  };
  if (slot.state == State::kDone) return done(slot.lit);
  if (slot.state == State::kExpanding) {
    return fail("symfe: combinational cycle through net " +
                std::string(name()));
  }
  const auto push = [&](netlist::CellId cell,
                        const liberty::BoundOutput* out, netlist::NetId d) {
    slot.state = State::kExpanding;
    stack_.push_back(GateFrame{id, cell, out, d,
                               static_cast<std::uint32_t>(inputs_.size())});
    return Step::kPushed;
  };
  if (desync_side_ && isRawEnableNet(name())) return done(kTrue);

  const netlist::Net& n = module_.net(id);
  switch (n.driver.kind) {
    case netlist::TermKind::kConst0:
      return done(kFalse);
    case netlist::TermKind::kConst1:
      return done(kTrue);
    case netlist::TermKind::kPort:
      return done(graph_.leaf(LeafKind::kInput, name()));
    case netlist::TermKind::kNone:
      return done(graph_.leaf(LeafKind::kFree, name()));
    case netlist::TermKind::kCellPin:
      break;
  }

  const netlist::CellId cid = n.driver.cell();
  const auto cname = [&] { return module_.cellName(cid); };
  const liberty::BoundType* bt = bound_.typeOf(cid);
  if (bt == nullptr) {
    return fail("symfe: unbound cell type " +
                std::string(module_.cellType(cid)) + " driving net " +
                std::string(name()));
  }

  // A state leaf on output Q, its complement on QN.
  const auto stateLeaf = [&](std::string_view reg, const char* what) {
    const liberty::BoundSeqPins& bp = bt->seq_pins;
    const NodeLit l = graph_.leaf(LeafKind::kState, reg);
    if (bound_.rolePinNet(cid, bp.q) == id) return done(l);
    if (bp.qn >= 0 && bound_.rolePinNet(cid, bp.qn) == id) return done(~l);
    return fail(std::string("symfe: unexpected ") + what +
                " output pin on " + std::string(cname()));
  };

  switch (bt->kind) {
    case liberty::CellKind::kCombinational:
      for (const liberty::BoundOutput& o : bt->outputs) {
        if (bound_.pinNet(cid, o.pin) == id) return push(cid, &o, {});
      }
      return fail("symfe: no output function of " + std::string(cname()) +
                  " drives net " + std::string(name()));
    case liberty::CellKind::kFlipFlop:
      return stateLeaf(cname(), "flip-flop");
    case liberty::CellKind::kLatch: {
      if (!desync_side_) {
        return fail("symfe: transparent latch " + std::string(cname()) +
                    " in a synchronous cone");
      }
      if (const std::string_view c = cname(); c.ends_with("_Ls")) {
        return stateLeaf(c.substr(0, c.size() - 3), "latch");
      }
      // Master / enable latches (_Lm, _cenLm, _cenLs) are transparent at
      // the settled pre-capture instant: value = data cone.
      const netlist::NetId d = bound_.rolePinNet(cid, bt->seq_pins.data);
      if (!d.valid()) {
        return fail("symfe: latch " + std::string(cname()) +
                    " has no data cone");
      }
      return push(cid, nullptr, d);
    }
    case liberty::CellKind::kClockGate:
      return fail("symfe: clock gate " + std::string(cname()) +
                  " in a data cone");
  }
  return fail("symfe: unclassified cell " + std::string(cname()));
}

// ------------------------------------------------------------------ CNF

std::optional<sat::Lit> Cnf::find(NodeLit l) const {
  const auto it = vars_.find(l.node());
  if (it == vars_.end()) return std::nullopt;
  return sat::mkLit(it->second, l.negated());
}

sat::Var Cnf::encode(std::uint32_t root) {
  if (const auto it = vars_.find(root); it != vars_.end()) return it->second;
  // Depth-first on an explicit stack of (node, inputs visited): a node's
  // variable comes right after its inputs', in canonical input order.
  std::vector<std::pair<std::uint32_t, unsigned>> stack{{root, 0}};
  std::vector<sat::Lit> clause;
  for (;;) {
    auto& [id, next] = stack.back();
    const ProofGraph::Node& node = graph_.nodes_[id];
    if (next < node.n) {
      const std::uint32_t in = graph_.inputs_[node.in + next++].node();
      if (!vars_.contains(in)) stack.emplace_back(in, 0);
      continue;
    }
    const sat::Var v = solver_.newVar();
    vars_.emplace(id, v);
    if (id == 0) solver_.addClause(sat::mkLit(v, true));  // constant false
    sat::Lit in[6];
    for (unsigned i = 0; i < node.n; ++i) {
      in[i] = *find(graph_.inputs_[node.in + i]);
    }
    // Full row encoding: (inputs == r) -> (v == t[r]) for every row.  At
    // most 64 clauses of n+1 literals; complete in both directions.  A
    // leaf has no inputs and no clauses.
    for (unsigned r = 0; node.n > 0 && r < (1u << node.n); ++r) {
      clause.clear();
      for (unsigned i = 0; i < node.n; ++i) {
        clause.push_back(((r >> i) & 1) ? ~in[i] : in[i]);
      }
      clause.push_back(tableBit(node.table, r) ? sat::mkLit(v)
                                               : sat::mkLit(v, true));
      solver_.addClause(clause);
    }
    stack.pop_back();
    if (stack.empty()) return v;
  }
}

}  // namespace desync::sim::symfe
