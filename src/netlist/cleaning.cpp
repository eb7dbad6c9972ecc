#include "netlist/cleaning.h"

#include <string>
#include <vector>

namespace desync::netlist {
namespace {

/// Resolves the (single) input and output pin indices of a buffer/inverter.
struct InOut {
  std::size_t in = Module::npos;
  std::size_t out = Module::npos;
};

InOut resolvePins(const Module& m, CellId id, const CleaningRules& rules) {
  const std::span<const PinConn> pins = m.pins(id);
  std::string type(m.cellType(id));
  InOut io;
  std::string in_name = rules.input_pin ? rules.input_pin(type) : "";
  std::string out_name = rules.output_pin ? rules.output_pin(type) : "";
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const PinConn& p = pins[i];
    std::string_view pname = m.design().names().str(p.name);
    if (p.dir == PortDir::kInput) {
      if (io.in == Module::npos && (in_name.empty() || pname == in_name)) {
        io.in = i;
      }
    } else if (p.dir == PortDir::kOutput) {
      if (io.out == Module::npos && (out_name.empty() || pname == out_name)) {
        io.out = i;
      }
    }
  }
  return io;
}

}  // namespace

CleaningStats cleanLogic(Module& module, const CleaningRules& rules) {
  CleaningStats stats;

  // Pass 1: buffers.  Merge each buffer's output net into its input net.
  for (CellId id : module.cellIds()) {
    if (!rules.is_buffer || !rules.is_buffer(module.cellType(id))) continue;
    InOut io = resolvePins(module, id, rules);
    if (io.in == Module::npos || io.out == Module::npos) continue;
    NetId in_net = module.pins(id)[io.in].net;
    NetId out_net = module.pins(id)[io.out].net;
    module.removeCell(id);
    if (out_net.valid() && in_net.valid()) {
      module.mergeNetInto(out_net, in_net);
    }
    ++stats.buffers_removed;
  }

  // Pass 2: inverter pairs.  When inverter B's input is driven by inverter
  // A, re-drive B's sinks from A's input.  Repeats to convergence so chains
  // of four, six, ... collapse fully.
  bool changed = true;
  while (changed) {
    changed = false;
    for (CellId b_id : module.cellIds()) {
      if (!rules.is_inverter || !rules.is_inverter(module.cellType(b_id))) {
        continue;
      }
      InOut b_io = resolvePins(module, b_id, rules);
      if (b_io.in == Module::npos || b_io.out == Module::npos) continue;
      NetId mid = module.pins(b_id)[b_io.in].net;
      if (!mid.valid()) continue;
      const TermRef drv = module.net(mid).driver;
      if (!drv.isCellPin()) continue;
      CellId a_id = drv.cell();
      if (a_id == b_id) continue;
      if (!rules.is_inverter(module.cellType(a_id))) continue;
      InOut a_io = resolvePins(module, a_id, rules);
      if (a_io.in == Module::npos) continue;
      NetId src = module.pins(a_id)[a_io.in].net;
      NetId b_out = module.pins(b_id)[b_io.out].net;
      if (!src.valid() || !b_out.valid()) continue;
      module.removeCell(b_id);
      module.mergeNetInto(b_out, src);
      // Drop A too when nothing else consumes the intermediate net.
      if (module.sinks(mid).empty()) {
        module.removeCell(a_id);
        module.removeNet(mid);
      }
      ++stats.inverter_pairs_removed;
      changed = true;
    }
  }
  return stats;
}

}  // namespace desync::netlist
