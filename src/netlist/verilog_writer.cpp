#include <algorithm>
#include <charconv>
#include <fstream>

#include "netlist/verilog.h"
#include "netlist/verilog_chars.h"

namespace desync::netlist {
namespace {

namespace chars = verilog_chars;

/// True when `name` can be emitted without escaping.
bool isSimpleName(std::string_view name) {
  if (name.empty() || chars::is(name.front(), chars::kDigit)) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return chars::is(c, chars::kIdentCont);
  });
}

/// Appends `name` as an identifier, escaped unless it is a simple one.
void appendName(std::string& out, std::string_view name) {
  if (isSimpleName(name)) {
    out += name;
    return;
  }
  out += '\\';
  out += name;
  out += ' ';
}

void appendInt(std::string& out, std::int32_t v) {
  char digits[16];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, v).ptr);
}

/// Estimated text size of a module, so the output is reserved once.
std::size_t sizeHint(const Module& m) {
  std::size_t pins = 0;
  m.forEachCell([&](CellId id) { pins += m.cell(id).pin_count; });
  return 40 * m.numCells() + 20 * pins + 24 * m.numNets() +
         40 * m.numPorts() + 64;
}

/// Appends one module's structural Verilog to an output buffer.  Every
/// net's reference text is computed once up front, and buses are keyed by
/// name id.
class Writer {
 public:
  Writer(const Module& m, std::string& out)
      : m_(m), names_(m.design().names()), out_(out) {}

  void run() {
    collectBuses();
    collectRefs();
    emitHeader();
    emitDeclarations();
    emitInstances();
    out_ += "endmodule\n";
  }

 private:
  struct Bus {
    NameId name;
    std::int32_t min_bit = 0;
    std::int32_t max_bit = 0;
    bool contiguous = false;  // its distinct bits fill [min_bit, max_bit]
  };

  /// Index of `bus` in buses_ when it is a contiguous bus of this
  /// module's nets, else NameIndex::kNone.
  [[nodiscard]] std::uint32_t contiguousBus(NameId bus) const {
    const std::uint32_t at = bus_index_.find(bus);
    return at != NameIndex::kNone && buses_[at].contiguous ? at
                                                           : NameIndex::kNone;
  }

  void collectBuses() {
    std::vector<std::pair<std::uint32_t, std::int32_t>> bits;
    m_.forEachNet([&](NetId id) {
      const BusRef& ref = m_.net(id).bus;
      if (!ref.valid()) return;
      std::uint32_t at = bus_index_.find(ref.bus);
      if (at == NameIndex::kNone) {
        at = static_cast<std::uint32_t>(buses_.size());
        bus_index_.insert(ref.bus, at);
        buses_.push_back(Bus{ref.bus, ref.bit, ref.bit});
      }
      Bus& bus = buses_[at];
      bus.min_bit = std::min(bus.min_bit, ref.bit);
      bus.max_bit = std::max(bus.max_bit, ref.bit);
      bits.emplace_back(at, ref.bit);
    });
    std::sort(bits.begin(), bits.end());
    bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
    std::vector<std::int64_t> distinct(buses_.size(), 0);
    for (const auto& bit : bits) ++distinct[bit.first];
    for (std::size_t i = 0; i < buses_.size(); ++i) {
      const std::int64_t span =
          std::int64_t{buses_[i].max_bit} - buses_[i].min_bit + 1;
      buses_[i].contiguous = distinct[i] == span;
    }
  }

  /// Reference text of every live net: a bus select or its (escaped) name.
  void collectRefs() {
    const std::vector<Net>& nets = m_.rawNets();
    ref_at_.resize(nets.size() + 1);
    refs_.reserve(12 * nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
      ref_at_[i] = static_cast<std::uint32_t>(refs_.size());
      const Net& n = nets[i];
      if (!n.valid) continue;
      if (n.bus.valid() && contiguousBus(n.bus.bus) != NameIndex::kNone) {
        appendName(refs_, names_.str(n.bus.bus));
        refs_ += '[';
        appendInt(refs_, n.bus.bit);
        refs_ += ']';
      } else {
        appendName(refs_, names_.str(n.name));
      }
    }
    ref_at_[nets.size()] = static_cast<std::uint32_t>(refs_.size());
  }

  [[nodiscard]] std::string_view ref(NetId id) const {
    (void)m_.net(id);  // throws on a removed net
    return std::string_view(refs_).substr(
        ref_at_[id.index()], ref_at_[id.index() + 1] - ref_at_[id.index()]);
  }

  void emitHeader() {
    out_ += "module ";
    appendName(out_, m_.name());
    out_ += " (";
    bool first = true;
    NameId last_bus;
    for (const Port& p : m_.ports()) {
      NameId token = p.name;
      if (p.bus.valid() && contiguousBus(p.bus.bus) != NameIndex::kNone) {
        if (p.bus.bus == last_bus) continue;  // already listed
        token = last_bus = p.bus.bus;
      } else {
        last_bus = NameId{};
      }
      if (!first) out_ += ", ";
      appendName(out_, names_.str(token));
      first = false;
    }
    out_ += ");\n";
  }

  void appendRange(const Bus& bus) {
    out_ += " [";
    appendInt(out_, bus.max_bit);
    out_ += ':';
    appendInt(out_, bus.min_bit);
    out_ += "] ";
    appendName(out_, names_.str(bus.name));
    out_ += ";\n";
  }

  void appendConstAssign(NetId id, const Net& n) {
    consts_ += "  assign ";
    consts_ += ref(id);
    consts_ += n.driver.kind == TermKind::kConst1 ? " = 1'b1;\n" : " = 1'b0;\n";
  }

  void emitDeclarations() {
    // Port directions.
    std::vector<bool> port_bus_done(buses_.size());
    for (const Port& p : m_.ports()) {
      const char* dir = p.dir == PortDir::kInput    ? "input"
                        : p.dir == PortDir::kOutput ? "output"
                                                    : "inout";
      if (p.bus.valid()) {
        const std::uint32_t bus = contiguousBus(p.bus.bus);
        if (bus != NameIndex::kNone) {
          if (!port_bus_done[bus]) {
            port_bus_done[bus] = true;
            out_ += "  ";
            out_ += dir;
            appendRange(buses_[bus]);
          }
          continue;
        }
      }
      out_ += "  ";
      out_ += dir;
      out_ += ' ';
      appendName(out_, names_.str(p.name));
      out_ += ";\n";
    }
    // Wire declarations (skip nets that are ports — Verilog implies them).
    // A port declaration implicitly declares a net of the same name, so skip
    // the wire declaration only when the connected net actually carries the
    // port's name.
    std::vector<bool> port_net(m_.netCapacity());
    for (const Port& p : m_.ports()) {
      if (p.net.valid() && m_.net(p.net).name == p.name) {
        port_net[p.net.index()] = true;
      }
    }
    std::vector<bool> wire_bus_done(buses_.size());
    m_.forEachNet([&](NetId id) {
      const Net& n = m_.net(id);
      const bool is_port_net = port_net[id.index()];
      if (n.bus.valid()) {
        const std::uint32_t bus = contiguousBus(n.bus.bus);
        if (bus != NameIndex::kNone) {
          if (!is_port_net && !port_bus_done[bus] && !wire_bus_done[bus]) {
            wire_bus_done[bus] = true;
            out_ += "  wire";
            appendRange(buses_[bus]);
          }
          if (n.driver.isConst()) appendConstAssign(id, n);
          return;
        }
      }
      if (!is_port_net) {
        out_ += "  wire ";
        out_ += ref(id);
        out_ += ";\n";
      }
      if (n.driver.isConst()) appendConstAssign(id, n);
    });
    out_ += consts_;
    // Ports whose connected net carries a different name need an explicit
    // alias (this arises after cleaning passes merge nets across a removed
    // buffer).
    for (const Port& p : m_.ports()) {
      if (!p.net.valid()) continue;
      if (m_.net(p.net).name == p.name) continue;
      out_ += "  assign ";
      if (p.dir == PortDir::kInput) {
        out_ += ref(p.net);
        out_ += " = ";
        appendName(out_, names_.str(p.name));
      } else {
        appendName(out_, names_.str(p.name));
        out_ += " = ";
        out_ += ref(p.net);
      }
      out_ += ";\n";
    }
  }

  void emitInstances() {
    m_.forEachCell([&](CellId id) {
      const Cell& c = m_.cell(id);
      out_ += "  ";
      appendName(out_, names_.str(c.type));
      out_ += ' ';
      appendName(out_, names_.str(c.name));
      out_ += " (";
      bool first = true;
      for (const PinConn& pin : m_.pins(id)) {
        out_ += first ? "." : ", .";
        first = false;
        out_ += names_.str(pin.name);
        out_ += '(';
        if (pin.net.valid()) out_ += ref(pin.net);
        out_ += ')';
      }
      out_ += ");\n";
    });
  }

  const Module& m_;
  const NameTable& names_;
  std::string& out_;
  NameIndex bus_index_;  // bus name -> index into buses_
  std::vector<Bus> buses_;
  std::string refs_;                  // every net's reference text
  std::vector<std::uint32_t> ref_at_;  // net slot -> offset into refs_
  std::string consts_;                // constant assigns, emitted after wires
};

}  // namespace

std::string writeVerilog(const Module& module) {
  std::string out;
  out.reserve(sizeHint(module));
  Writer(module, out).run();
  return out;
}

std::string writeVerilog(const Design& design) {
  std::size_t hint = 0;
  design.forEachModule([&](const Module& m) { hint += sizeHint(m) + 1; });
  std::string out;
  out.reserve(hint);
  const Module* top = design.hasTop() ? &design.top() : nullptr;
  design.forEachModule([&](const Module& m) {
    if (&m == top) return;
    Writer(m, out).run();
    out += '\n';
  });
  if (top != nullptr) Writer(*top, out).run();
  return out;
}

void writeVerilogFile(const Design& design, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw VerilogError("cannot open for write: " + path);
  out << writeVerilog(design);
}

}  // namespace desync::netlist
