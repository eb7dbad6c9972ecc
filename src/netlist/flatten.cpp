#include "netlist/flatten.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace desync::netlist {
namespace {

/// Buffers expandInstance reuses from one instance to the next.
struct ExpandScratch {
  std::string name;                ///< "<instance>/" + inner name
  std::vector<NetId> port_outer;   ///< sub PortId -> outer net
  std::vector<NetId> net_map;      ///< sub NetId -> top NetId
  std::vector<PinConn> pins;       ///< one copied cell's pins
};

/// Expands one instance `inst` (of module `sub`) inside `top`.  Pin, type
/// and inner names are already ids of the design's one NameTable; only the
/// prefixed net and cell names are new.
void expandInstance(Module& top, CellId inst, const Module& sub,
                    ExpandScratch& scratch) {
  NameTable& names = top.design().names();

  // Bind each port of `sub` to the outer net on the instance pin of the
  // same name (the first such pin), then each port's inner net to it.  A
  // single inner net bound through several ports to *different* outer nets
  // cannot be expressed after flattening.
  scratch.port_outer.assign(sub.numPorts(), NetId{});
  for (const PinConn& pin : top.pins(inst)) {
    if (!pin.net.valid()) continue;
    const PortId port = sub.findPort(pin.name);
    if (port.valid() && !scratch.port_outer[port.index()].valid()) {
      scratch.port_outer[port.index()] = pin.net;
    }
  }
  scratch.net_map.assign(sub.netCapacity(), NetId{});
  for (std::size_t i = 0; i < sub.numPorts(); ++i) {
    const NetId inner = sub.ports()[i].net;
    const NetId outer = scratch.port_outer[i];
    if (!inner.valid() || !outer.valid()) continue;
    NetId& bound = scratch.net_map[inner.index()];
    if (bound.valid() && !(bound == outer)) {
      throw NetlistError("flatten: inner net of " + std::string(sub.name()) +
                         " bound to multiple distinct outer nets");
    }
    bound = outer;
  }

  // Remove the instance up front so its output pins stop driving the outer
  // nets the copied inner drivers will take over.
  std::string& name = scratch.name;
  name.assign(top.cellName(inst)).push_back('/');
  const std::size_t prefix = name.size();
  top.removeCell(inst);

  // Create the other inner nets in the outer module.
  sub.forEachNet([&](NetId nid) {
    NetId& outer = scratch.net_map[nid.index()];
    if (outer.valid()) return;
    const Net& n = sub.net(nid);
    if (n.driver.isConst()) {
      outer = top.constNet(n.driver.kind == TermKind::kConst1);
    } else {
      name.resize(prefix);
      name.append(names.str(n.name));
      outer = top.addNet(names.intern(name));
      top.net(outer).false_path = n.false_path;
    }
  });

  // Copy cells.
  sub.forEachCell([&](CellId cid) {
    const Cell& c = sub.cell(cid);
    scratch.pins.clear();
    for (const PinConn& pin : sub.pins(cid)) {
      NetId mapped;
      if (pin.net.valid()) mapped = scratch.net_map[pin.net.index()];
      scratch.pins.push_back(PinConn{pin.name, pin.dir, mapped});
    }
    name.resize(prefix);
    name.append(names.str(c.name));
    const CellId new_id = top.addCell(names.intern(name), c.type, scratch.pins);
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
  NameTable& dst_names = dst.names();
  std::vector<PinConn> pins;
  src.forEachCell([&](CellId cid) {
    const Cell& c = src.cell(cid);
    const NameId name = dst_names.intern(names.str(c.name));
    const NameId type = dst_names.intern(names.str(c.type));
    pins.clear();
    for (const PinConn& pin : src.pins(cid)) {
      NetId mapped;
      if (pin.net.valid()) mapped = net_map.at(pin.net.value);
      pins.push_back(
          PinConn{dst_names.intern(names.str(pin.name)), pin.dir, mapped});
    }
    const CellId new_id = out.addCell(name, type, pins);
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
  const Design& design = module.design();
  ExpandScratch scratch;
  // An expansion appends its cells, so one walk by id also reaches the
  // instances nested in them, after every instance that existed before.
  for (std::uint32_t i = 0; i < module.cellCapacity(); ++i) {
    const CellId id{i};
    if (!module.isLiveCell(id)) continue;
    const Module* sub = design.findModule(module.cell(id).type);
    if (sub == nullptr || sub == &module) continue;
    expandInstance(module, id, *sub, scratch);
    ++stats.instances_flattened;
  }
  return stats;
}

FlattenStats flattenTop(Design& design) { return flatten(design.top()); }

}  // namespace desync::netlist
