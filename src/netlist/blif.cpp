#include "netlist/blif.h"

#include <fstream>
#include <sstream>

namespace desync::netlist {
namespace {

/// BLIF identifiers cannot contain whitespace; everything else passes
/// through (SIS tolerates brackets and slashes).
std::string blifName(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c == ' ' || c == '\t') c = '_';
  }
  return out;
}

}  // namespace

std::string writeBlif(const Module& module) {
  const NameTable& names = module.design().names();
  std::ostringstream out;
  out << ".model " << blifName(module.name()) << "\n";

  out << ".inputs";
  for (const Port& p : module.ports()) {
    if (p.dir == PortDir::kInput) {
      out << " " << blifName(names.str(p.name));
    }
  }
  out << "\n.outputs";
  for (const Port& p : module.ports()) {
    if (p.dir != PortDir::kInput) {
      out << " " << blifName(names.str(p.name));
    }
  }
  out << "\n";

  // Constant nets.
  module.forEachNet([&](NetId id) {
    const Net& n = module.net(id);
    if (n.driver.kind == TermKind::kConst0) {
      out << ".names " << blifName(module.netName(id)) << "\n";
    } else if (n.driver.kind == TermKind::kConst1) {
      out << ".names " << blifName(module.netName(id)) << "\n1\n";
    }
  });

  module.forEachCell([&](CellId id) {
    const Cell& c = module.cell(id);
    out << ".subckt " << blifName(names.str(c.type));
    for (const PinConn& pin : module.pins(id)) {
      if (!pin.net.valid()) continue;
      out << " " << names.str(pin.name) << "="
          << blifName(module.netName(pin.net));
    }
    out << "\n";
  });

  // Port aliases for ports whose net carries a different name.
  for (const Port& p : module.ports()) {
    if (!p.net.valid()) continue;
    const Net& n = module.net(p.net);
    if (n.name == p.name) continue;
    if (p.dir == PortDir::kInput) {
      out << ".names " << blifName(names.str(p.name)) << " "
          << blifName(module.netName(p.net)) << "\n1 1\n";
    } else {
      out << ".names " << blifName(module.netName(p.net)) << " "
          << blifName(names.str(p.name)) << "\n1 1\n";
    }
  }

  out << ".end\n";
  return out.str();
}

void writeBlifFile(const Design& design, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw NetlistError("cannot open for write: " + path);
  out << writeBlif(design.top());
}

}  // namespace desync::netlist
