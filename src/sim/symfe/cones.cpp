// Cone walk (see cones.h for the substitution-glue rules).
#include "sim/symfe/cones.h"

#include <algorithm>
#include <cctype>
#include <span>
#include <vector>

#include "sim/symfe/encoder.h"
#include "sim/symfe/proof_key.h"

namespace desync::sim::symfe {

namespace {

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

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

template <typename Builder>
typename ConeWalker<Builder>::Lit ConeWalker<Builder>::literalFor(
    netlist::NetId net) {
  const Entry e = walk(net, 0);
  if (e.height > kMaxConeDepth) {
    return builder_.failed("symfe: combinational cone too deep at net " +
                           std::string(module_.netName(net)));
  }
  return e.lit;
}

template <typename Builder>
typename ConeWalker<Builder>::Entry ConeWalker<Builder>::walk(
    netlist::NetId net, std::uint32_t depth) {
  if (depth > kMaxConeDepth) {
    return Entry{builder_.failed("symfe: combinational cone too deep at net " +
                                 std::string(module_.netName(net))),
                 depth};
  }
  Entry& slot = memo(net);  // stable: dense_ is pre-sized, sparse_ nodal
  if (slot.state == State::kDone) return slot;
  if (slot.state == State::kExpanding) {
    return Entry{builder_.failed("symfe: combinational cycle through net " +
                                 std::string(module_.netName(net))),
                 0};
  }
  slot.state = State::kExpanding;
  slot = compute(net, depth);
  slot.state = State::kDone;
  return slot;
}

template <typename Builder>
typename ConeWalker<Builder>::Entry ConeWalker<Builder>::compute(
    netlist::NetId id, std::uint32_t depth) {
  const netlist::Net& n = module_.net(id);
  const std::string_view name = module_.netName(id);
  const auto leaf = [&](Lit lit) { return Entry{lit, 0}; };
  const auto fail = [&](const std::string& why) {
    return Entry{builder_.failed(why), 0};
  };
  if (desync_side_ && isRawEnableNet(name)) {
    return leaf(builder_.constLit(true));
  }

  switch (n.driver.kind) {
    case netlist::TermKind::kConst0:
      return leaf(builder_.constLit(false));
    case netlist::TermKind::kConst1:
      return leaf(builder_.constLit(true));
    case netlist::TermKind::kPort:
      return leaf(builder_.leaf("in:" + std::string(name)));
    case netlist::TermKind::kNone:
      return leaf(builder_.leaf("net:" + std::string(name)));
    case netlist::TermKind::kCellPin:
      break;
  }

  const netlist::CellId cid = n.driver.cell();
  const std::string_view cname = module_.cellName(cid);
  const liberty::BoundType* bt = bound_.typeOf(cid);
  if (bt == nullptr) {
    return fail("symfe: unbound cell type " +
                std::string(module_.cellType(cid)) + " driving net " +
                std::string(name));
  }

  switch (bt->kind) {
    case liberty::CellKind::kCombinational: {
      for (const liberty::BoundOutput& o : bt->outputs) {
        if (bound_.pinNet(cid, o.pin) != id) continue;
        // This node's inputs go on top of the scratch stack; every walk()
        // leaves the stack as it found it.
        const std::size_t base = inputs_.size();
        std::uint32_t height = 0;
        for (const std::uint16_t p : o.inputs) {
          const netlist::NetId in_net = bound_.pinNet(cid, p);
          if (!in_net.valid()) {
            inputs_.resize(base);
            return fail("symfe: unconnected input on " + std::string(cname));
          }
          const Entry in = walk(in_net, depth + 1);
          inputs_.push_back(in.lit);
          height = std::max(height, in.height + 1);
        }
        const Lit lit = builder_.table(
            o.table, std::span<const Lit>(inputs_).subspan(base));
        inputs_.resize(base);
        return Entry{lit, height};
      }
      return fail("symfe: no output function of " + std::string(cname) +
                  " drives net " + std::string(name));
    }
    case liberty::CellKind::kFlipFlop: {
      const liberty::BoundSeqPins& bp = bt->seq_pins;
      const Lit l = builder_.leaf("reg:" + std::string(cname));
      if (bound_.rolePinNet(cid, bp.q) == id) return leaf(l);
      if (bp.qn >= 0 && bound_.rolePinNet(cid, bp.qn) == id) return leaf(~l);
      return fail("symfe: unexpected flip-flop output pin on " +
                  std::string(cname));
    }
    case liberty::CellKind::kLatch: {
      if (!desync_side_) {
        return fail("symfe: transparent latch " + std::string(cname) +
                    " in a synchronous cone");
      }
      const liberty::BoundSeqPins& bp = bt->seq_pins;
      if (endsWith(cname, "_Ls")) {
        const Lit l = builder_.leaf(
            "reg:" + std::string(cname.substr(0, cname.size() - 3)));
        if (bound_.rolePinNet(cid, bp.q) == id) return leaf(l);
        if (bp.qn >= 0 && bound_.rolePinNet(cid, bp.qn) == id) {
          return leaf(~l);
        }
        return fail("symfe: unexpected latch output pin on " +
                    std::string(cname));
      }
      // Master / enable latches (_Lm, _cenLm, _cenLs) are transparent at
      // the settled pre-capture instant: value = data cone.
      const netlist::NetId d = bound_.rolePinNet(cid, bp.data);
      if (!d.valid()) {
        return fail("symfe: latch " + std::string(cname) +
                    " has no data cone");
      }
      const Entry in = walk(d, depth + 1);
      return Entry{in.lit, in.height + 1};
    }
    case liberty::CellKind::kClockGate:
      return fail("symfe: clock gate " + std::string(cname) +
                  " in a data cone");
  }
  return fail("symfe: unclassified cell " + std::string(cname));
}

template class ConeWalker<Encoder>;
template class ConeWalker<KeyBuilder>;

}  // namespace desync::sim::symfe
