#include "async/celement.h"

#include <vector>

#include "async/cell_builder.h"

namespace desync::async {

using netlist::Design;
using netlist::Module;
using netlist::NetId;
using netlist::PortDir;

std::string cElementName(int n_inputs, ResetKind reset) {
  std::string name = "DR_C" + std::to_string(n_inputs);
  if (reset == ResetKind::kLow) name += "_R0";
  if (reset == ResetKind::kHigh) name += "_R1";
  return name;
}

namespace {

/// Builds the primitive 2-input element inside `m`: a MAJ3 whose third input
/// is the (post-reset-gate) output.  Returns the output net.
NetId buildC2Core(CellBuilder& b, NetId a, NetId bn, NetId rst,
                  ResetKind reset, const std::string& prefix) {
  NetId z = b.net(prefix + "z");
  if (reset == ResetKind::kNone) {
    b.cell(prefix + "maj", "MAJ3",
           {{"A", PortDir::kInput, a},
            {"B", PortDir::kInput, bn},
            {"C", PortDir::kInput, z},
            {"Z", PortDir::kOutput, z}});
    return z;
  }
  NetId raw = b.net(prefix + "raw");
  b.cell(prefix + "maj", "MAJ3",
         {{"A", PortDir::kInput, a},
          {"B", PortDir::kInput, bn},
          {"C", PortDir::kInput, z},
          {"Z", PortDir::kOutput, raw}});
  // kLow: z = raw & !rst, held at 0 while reset is asserted; kHigh:
  // z = raw | rst, held at 1.
  b.cell(prefix + "rstg", reset == ResetKind::kLow ? "AN2B1" : "OR2",
         {{"A", PortDir::kInput, raw},
          {"B", PortDir::kInput, rst},
          {"Z", PortDir::kOutput, z}});
  return z;
}

}  // namespace

Module& ensureCElement(Design& design, const liberty::Gatefile& gatefile,
                       int n_inputs, ResetKind reset) {
  (void)gatefile;  // cell names are fixed; gatefile kept for symmetry/checks
  if (n_inputs < 2 || n_inputs > 10) {
    throw netlist::NetlistError("C-element fan-in out of range (2..10)");
  }
  std::string name = cElementName(n_inputs, reset);
  if (Module* existing = design.findModule(name)) return *existing;

  Module& m = design.addModule(name);
  CellBuilder b(m);
  std::vector<NetId> level;
  for (int i = 0; i < n_inputs; ++i) {
    const std::string pin = "A" + std::to_string(i);
    NetId in = b.net(pin);
    b.port(pin, PortDir::kInput, in);
    level.push_back(in);
  }
  NetId rst;
  if (reset != ResetKind::kNone) {
    rst = b.net("RST");
    b.port("RST", PortDir::kInput, rst);
  }

  // Reduce pairwise until a single output remains.  Odd operand carried.
  int stage = 0;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      std::string prefix =
          "s" + std::to_string(stage) + "_" + std::to_string(i / 2) + "_";
      next.push_back(
          buildC2Core(b, level[i], level[i + 1], rst, reset, prefix));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
    ++stage;
  }

  b.port("Z", PortDir::kOutput, level[0]);
  return m;
}

}  // namespace desync::async
