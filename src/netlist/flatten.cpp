#include "netlist/flatten.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace desync::netlist {
namespace {

/// Expands one instance `inst` (of module `sub`) inside `top`.
void expandInstance(Module& top, CellId inst, const Module& sub) {
  const Design& design = top.design();
  const NameTable& names = design.names();
  std::string prefix = std::string(top.cellName(inst)) + "/";

  // Map each formal port name of `sub` to the outer net bound on the
  // instance pin.
  std::unordered_map<NameId, NetId> port_to_outer;
  {
    for (const PinConn& pin : top.pins(inst)) {
      if (pin.net.valid()) port_to_outer.emplace(pin.name, pin.net);
    }
  }
  // Remove the instance up front so its output pins stop driving the outer
  // nets the copied inner drivers will take over.
  top.removeCell(inst);

  // Create inner nets in the outer module.  Port-connected inner nets map to
  // the outer nets instead.
  std::unordered_map<std::uint32_t, NetId> net_map;  // sub NetId -> top NetId
  sub.forEachNet([&](NetId nid) {
    const Net& n = sub.net(nid);
    // A net is "the port's net" when some port of `sub` references it.  A
    // single inner net bound through several ports to *different* outer
    // nets cannot be expressed after flattening.
    NetId outer;
    for (const Port& p : sub.ports()) {
      if (!(p.net == nid)) continue;
      auto it = port_to_outer.find(p.name);
      if (it == port_to_outer.end()) continue;
      if (outer.valid() && !(outer == it->second)) {
        throw NetlistError("flatten: inner net of " + std::string(sub.name()) +
                           " bound to multiple distinct outer nets");
      }
      outer = it->second;
    }
    if (!outer.valid()) {
      if (n.driver.isConst()) {
        outer = top.constNet(n.driver.kind == TermKind::kConst1);
      } else {
        std::string name = prefix + std::string(names.str(n.name));
        outer = top.addNet(name);
        top.net(outer).false_path = n.false_path;
      }
    }
    net_map.emplace(nid.value, outer);
  });

  // Copy cells.
  sub.forEachCell([&](CellId cid) {
    const Cell& c = sub.cell(cid);
    std::vector<Module::PinInit> pins;
    pins.reserve(c.pin_count);
    for (const PinConn& pin : sub.pins(cid)) {
      NetId mapped;
      if (pin.net.valid()) mapped = net_map.at(pin.net.value);
      pins.push_back(Module::PinInit{std::string(names.str(pin.name)),
                                     pin.dir, mapped});
    }
    CellId new_id = top.addCell(prefix + std::string(names.str(c.name)),
                                names.str(c.type), pins);
    top.cell(new_id).size_only = c.size_only;
    top.cell(new_id).dont_touch = c.dont_touch;
  });
}

}  // namespace

Module& cloneModule(Design& dst, const Module& src) {
  const NameTable& names = src.design().names();
  if (Module* existing = dst.findModule(src.name())) return *existing;

  // Clone dependencies first so instance pin directions resolve naturally.
  src.forEachCell([&](CellId id) {
    if (const Module* sub = src.design().findModule(src.cellType(id))) {
      if (sub != &src) cloneModule(dst, *sub);
    }
  });

  Module& out = dst.addModule(src.name());
  std::unordered_map<std::uint32_t, NetId> net_map;
  src.forEachNet([&](NetId nid) {
    const Net& n = src.net(nid);
    NetId copy;
    if (n.driver.isConst()) {
      copy = out.constNet(n.driver.kind == TermKind::kConst1);
    } else if (n.bus.valid()) {
      copy = out.addNet(names.str(n.name), names.str(n.bus.bus), n.bus.bit);
    } else {
      copy = out.addNet(names.str(n.name));
    }
    out.net(copy).false_path = n.false_path;
    net_map.emplace(nid.value, copy);
  });
  for (const Port& p : src.ports()) {
    NetId net;
    if (p.net.valid()) net = net_map.at(p.net.value);
    if (p.bus.valid()) {
      out.addPort(names.str(p.name), p.dir, net, names.str(p.bus.bus),
                  p.bus.bit);
    } else {
      out.addPort(names.str(p.name), p.dir, net);
    }
  }
  src.forEachCell([&](CellId cid) {
    const Cell& c = src.cell(cid);
    std::vector<Module::PinInit> pins;
    pins.reserve(c.pin_count);
    for (const PinConn& pin : src.pins(cid)) {
      NetId mapped;
      if (pin.net.valid()) mapped = net_map.at(pin.net.value);
      pins.push_back(
          Module::PinInit{std::string(names.str(pin.name)), pin.dir, mapped});
    }
    CellId new_id =
        out.addCell(names.str(c.name), names.str(c.type), pins);
    out.cell(new_id).size_only = c.size_only;
    out.cell(new_id).dont_touch = c.dont_touch;
  });
  return out;
}

Module& snapshotModule(Design& dst, Module& src) {
  bool has_instances = false;
  if (src.design().numModules() > 1) {
    std::unordered_set<std::uint32_t> module_names;
    src.design().forEachModule([&](const Module& sub) {
      if (&sub != &src) module_names.insert(sub.nameId().value);
    });
    src.forEachCell([&](CellId id) {
      has_instances =
          has_instances || module_names.count(src.cell(id).type.value) != 0;
    });
  }
  if (dst.numModules() != 0 || dst.names().size() != 0 || has_instances) {
    return cloneModule(dst, src);
  }
  // Sharing the append-only table keeps every NameId valid in `dst`, so
  // the flat arrays (which reference names by id) are copied unchanged.
  dst.shareNames(src.design());
  Module& out = dst.addModule(src.name());
  out.copyContentFrom(src);
  return out;
}

FlattenStats flatten(Module& module) {
  FlattenStats stats;
  Design& design = module.design();
  bool changed = true;
  while (changed) {
    changed = false;
    for (CellId id : module.cellIds()) {
      const Module* sub = design.findModule(module.cellType(id));
      if (sub == nullptr || sub == &module) continue;
      expandInstance(module, id, *sub);
      ++stats.instances_flattened;
      changed = true;
    }
  }
  return stats;
}

FlattenStats flattenTop(Design& design) { return flatten(design.top()); }

}  // namespace desync::netlist
