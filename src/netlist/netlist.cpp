#include "netlist/netlist.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace desync::netlist {

namespace {

[[noreturn]] void fail(const std::string& msg) { throw NetlistError(msg); }

}  // namespace

// ---------------------------------------------------------------- Module

Module::Module(Design& design, NameId name) : design_(&design), name_(name) {}

NameTable& Module::names() { return design_->names(); }
const NameTable& Module::names() const { return design_->names(); }

std::string_view Module::name() const { return names().str(name_); }

NetId Module::addNet(NameId name, BusRef bus) {
  NetId id{static_cast<std::uint32_t>(nets_.size())};
  if (!net_by_name_.insert(name, id.value)) {
    fail("duplicate net name: " + std::string(names().str(name)));
  }
  Net n;
  n.name = name;
  n.bus = bus;
  nets_.push_back(std::move(n));
  ++live_nets_;
  return id;
}

NetId Module::addNet(std::string_view name) {
  return addNet(names().intern(name));
}

NetId Module::addNet(std::string_view name, std::string_view bus_name,
                     std::int32_t bit) {
  const NameId nid = names().intern(name);
  return addNet(nid, BusRef{names().intern(bus_name), bit});
}

NetId Module::findNet(NameId name) const {
  return NetId{net_by_name_.find(name)};
}

NetId Module::findNet(std::string_view name) const {
  NameId nid = names().find(name);
  return nid.valid() ? findNet(nid) : NetId{};
}

NetId Module::constNet(bool value) {
  NetId& slot = const_net_[value ? 1 : 0];
  if (slot.valid() && nets_[slot.index()].valid) return slot;
  slot = addNet(names().makeUnique(value ? "const1" : "const0"));
  nets_[slot.index()].driver =
      TermRef{value ? TermKind::kConst1 : TermKind::kConst0, 0, 0};
  return slot;
}

void Module::removeNet(NetId id) {
  Net& n = net(id);
  // Detach any remaining terminals.
  if (n.driver.isCellPin()) {
    pinAt(n.driver.cell(), n.driver.pin).net = NetId{};
  } else if (n.driver.isPort()) {
    ports_.at(n.driver.index).net = NetId{};
  }
  for (const TermRef& t : sinks(id)) {
    if (t.isCellPin()) {
      pinAt(t.cell(), t.pin).net = NetId{};
    } else if (t.isPort()) {
      ports_.at(t.index).net = NetId{};
    }
  }
  n.sinks = SinkSegment{};  // the slots stay behind as pool garbage
  n.driver = TermRef{};
  n.valid = false;
  net_by_name_.erase(n.name);
  --live_nets_;
}

void Module::mergeNetInto(NetId from, NetId to) {
  if (from == to) return;
  // Re-point every sink of `from` to `to`, from a copy: the attaches below
  // grow the pool.
  const std::span<const TermRef> live = sinks(from);
  const std::vector<TermRef> moved(live.begin(), live.end());
  for (const TermRef& t : moved) {
    if (t.isCellPin()) {
      connectPin(t.cell(), t.pin, to);
    } else if (t.isPort()) {
      Port& p = ports_.at(t.index);
      // attach/detachTerm take the *pin-equivalent* direction: an output
      // port consumes the net like an input pin does.
      const PortDir as_pin =
          p.dir == PortDir::kInput ? PortDir::kOutput : PortDir::kInput;
      detachTerm(from, t, as_pin);
      p.net = to;
      attachTerm(to, t, as_pin);
    }
  }
  removeNet(from);
}

void Module::removedAccess(const char* what) {
  fail(std::string("access to removed ") + what);
}

std::string_view Module::netName(NetId id) const {
  return names().str(net(id).name);
}

CellId Module::addCell(NameId name, NameId type,
                       std::span<const PinConn> pins) {
  CellId id{static_cast<std::uint32_t>(cells_.size())};
  if (!cell_by_name_.insert(name, id.value)) {
    fail("duplicate cell name: " + std::string(names().str(name)));
  }
  Cell& c = cells_.emplace_back();
  c.name = name;
  c.type = type;
  c.pin_begin = static_cast<std::uint32_t>(pin_pool_.size());
  c.pin_count = static_cast<std::uint32_t>(pins.size());
  ++live_cells_;
  // Each pin is connected once it is attached, so a failed attach (a
  // second driver) leaves no pin pointing at a net that does not list it.
  const std::uint32_t base = c.pin_begin;
  for (const PinConn& p : pins) pin_pool_.push_back({p.name, p.dir, NetId{}});
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (!pins[i].net.valid()) continue;
    attachTerm(pins[i].net,
               TermRef{TermKind::kCellPin, id.value,
                       static_cast<std::uint16_t>(i)},
               pins[i].dir);
    pin_pool_[base + i].net = pins[i].net;
  }
  return id;
}

CellId Module::addCell(std::string_view name, std::string_view type,
                       const std::vector<PinInit>& pins) {
  const NameId nid = names().intern(name);
  const NameId tid = names().intern(type);
  std::vector<PinConn> conns;
  conns.reserve(pins.size());
  for (const PinInit& p : pins) {
    conns.push_back(PinConn{names().intern(p.name), p.dir, p.net});
  }
  return addCell(nid, tid, conns);
}

CellId Module::findCell(std::string_view name) const {
  NameId nid = names().find(name);
  return nid.valid() ? CellId{cell_by_name_.find(nid)} : CellId{};
}

void Module::removeCell(CellId id) {
  Cell& c = cell(id);
  for (std::size_t i = 0; i < c.pin_count; ++i) disconnectPin(id, i);
  c.valid = false;
  cell_by_name_.erase(c.name);
  --live_cells_;
}

void Module::removeCells(const std::vector<CellId>& ids) {
  if (ids.empty()) return;
  for (CellId id : ids) {
    Cell& c = cell(id);  // validates liveness (and catches duplicates)
    c.valid = false;
    cell_by_name_.erase(c.name);
    --live_cells_;
  }
  // One sweep dropping every term that points at a tombstoned cell.  A
  // stale term cannot predate this call (removal always detaches), so any
  // dead slot found here is one of `ids`.  erase_if keeps the survivors'
  // relative order — the same final order per-cell removal produces.
  forEachNet([&](NetId nid) {
    Net& n = nets_[nid.index()];
    if (n.driver.isCellPin() && !cells_[n.driver.cell().index()].valid) {
      n.driver = TermRef{};
    }
    TermRef* const first = sink_pool_.data() + n.sinks.begin;
    TermRef* const last = std::remove_if(
        first, first + n.sinks.count, [&](const TermRef& t) {
          return t.isCellPin() && !cells_[t.cell().index()].valid;
        });
    n.sinks.count = static_cast<std::uint32_t>(last - first);
  });
  for (CellId id : ids) {
    const Cell& c = cells_[id.index()];
    for (std::uint32_t i = 0; i < c.pin_count; ++i) {
      pin_pool_[c.pin_begin + i].net = NetId{};
    }
  }
}

void Module::redistributeSinks(NetId from, const std::vector<NetId>& assign) {
  // The kept sinks are compacted in place: `from`'s segment never moves
  // (nothing is appended to it), and pool indices survive the pushes below
  // reallocating the pool.
  const SinkSegment seg = net(from).sinks;
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < seg.count; ++i) {
    const TermRef t = sink_pool_[seg.begin + i];
    const NetId to = i < assign.size() ? assign[i] : NetId{};
    if (!to.valid() || to == from || !t.isCellPin()) {
      sink_pool_[seg.begin + kept++] = t;
      continue;
    }
    pinAt(t.cell(), t.pin).net = to;
    pushSink(net(to).sinks, t);
  }
  nets_[from.index()].sinks.count = kept;
}

PinConn& Module::pinAt(CellId cell_id, std::size_t pin_index) {
  const Cell& c = cell(cell_id);
  if (pin_index >= c.pin_count) fail("pin index out of range");
  return pin_pool_[c.pin_begin + pin_index];
}

void Module::connectPin(CellId cell_id, std::size_t pin_index, NetId net_id) {
  PinConn& pin = pinAt(cell_id, pin_index);
  if (pin.net.valid()) disconnectPin(cell_id, pin_index);
  (void)net(net_id);  // validate
  pin.net = net_id;
  TermRef term{TermKind::kCellPin, cell_id.value,
               static_cast<std::uint16_t>(pin_index)};
  attachTerm(net_id, term, pin.dir);
}

void Module::disconnectPin(CellId cell_id, std::size_t pin_index) {
  PinConn& pin = pinAt(cell_id, pin_index);
  if (!pin.net.valid()) return;
  TermRef term{TermKind::kCellPin, cell_id.value,
               static_cast<std::uint16_t>(pin_index)};
  detachTerm(pin.net, term, pin.dir);
  pin.net = NetId{};
}

std::size_t Module::findPin(CellId cell_id, std::string_view pin) const {
  const std::span<const PinConn> ps = pins(cell_id);
  NameId nid = names().find(pin);
  if (!nid.valid()) return npos;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (ps[i].name == nid) return i;
  }
  return npos;
}

NetId Module::pinNet(CellId cell_id, std::string_view pin) const {
  std::size_t idx = findPin(cell_id, pin);
  return idx == npos ? NetId{} : pins(cell_id)[idx].net;
}

std::string_view Module::cellName(CellId id) const {
  return names().str(cell(id).name);
}

std::string_view Module::cellType(CellId id) const {
  return names().str(cell(id).type);
}

void Module::reserve(std::size_t cells, std::size_t nets, std::size_t pins,
                     std::size_t ports) {
  cells_.reserve(cells);
  nets_.reserve(nets);
  ports_.reserve(ports);
  cell_by_name_.reserve(cells);
  net_by_name_.reserve(nets);
  port_by_name_.reserve(ports);
  pin_pool_.reserve(pins);
  // Segments that fill move to the pool's end, leaving their old slots
  // behind: twice the sinks is the usual high-water mark.
  sink_pool_.reserve(2 * pins);
}

void Module::renameCell(CellId id, std::string_view new_name) {
  Cell& c = cell(id);
  NameId nid = names().intern(new_name);
  if (!cell_by_name_.insert(nid, id.value)) {
    fail("duplicate cell name on rename: " + std::string(new_name));
  }
  cell_by_name_.erase(c.name);
  c.name = nid;
}

PortId Module::addPort(std::string_view name, PortDir dir, NetId net_id) {
  return addPort(names().intern(name), dir, net_id);
}

PortId Module::addPort(std::string_view name, PortDir dir, NetId net_id,
                       std::string_view bus_name, std::int32_t bit) {
  const NameId nid = names().intern(name);
  return addPort(nid, dir, net_id, BusRef{names().intern(bus_name), bit});
}

PortId Module::addPort(NameId name, PortDir dir, NetId net_id, BusRef bus) {
  PortId id{static_cast<std::uint32_t>(ports_.size())};
  if (!port_by_name_.insert(name, id.value)) {
    fail("duplicate port name: " + std::string(names().str(name)));
  }
  ports_.push_back(Port{name, dir, NetId{}, bus});
  if (net_id.valid()) {
    ports_.back().net = net_id;
    TermRef term{TermKind::kPort, id.value, 0};
    // An input port *drives* its net; an output port is a sink of it.
    attachTerm(net_id, term,
               dir == PortDir::kInput ? PortDir::kOutput : PortDir::kInput);
  }
  return id;
}

PortId Module::findPort(std::string_view name) const {
  NameId nid = names().find(name);
  return nid.valid() ? findPort(nid) : PortId{};
}

PortId Module::findPort(NameId name) const {
  return PortId{port_by_name_.find(name)};
}

std::vector<CellId> Module::cellIds() const {
  std::vector<CellId> out;
  out.reserve(live_cells_);
  forEachCell([&](CellId id) { out.push_back(id); });
  return out;
}

std::vector<NetId> Module::netIds() const {
  std::vector<NetId> out;
  out.reserve(live_nets_);
  forEachNet([&](NetId id) { out.push_back(id); });
  return out;
}

void Module::attachTerm(NetId net_id, TermRef term, PortDir dir) {
  Net& n = net(net_id);
  // By convention the `dir` argument is the direction of the *pin*: an
  // output pin drives the net, an input pin is a sink.  (For ports the
  // caller already flipped the direction.)
  const bool drives = (dir == PortDir::kOutput || dir == PortDir::kInout);
  if (drives) {
    if (n.driver.kind != TermKind::kNone) {
      fail("net '" + std::string(names().str(n.name)) +
           "' has multiple drivers");
    }
    n.driver = term;
  } else {
    pushSink(n.sinks, term);
  }
}

void Module::pushSink(SinkSegment& seg, TermRef term) {
  if (seg.count == seg.capacity) {
    const auto end = static_cast<std::uint32_t>(sink_pool_.size());
    if (seg.capacity != 0 && seg.begin + seg.capacity == end) {
      // Already the pool's tail: doubling in place is the same move.
      sink_pool_.resize(end + seg.capacity);
    } else {
      sink_pool_.resize(end + std::max<std::uint32_t>(2 * seg.capacity, 1));
      std::copy_n(sink_pool_.begin() + seg.begin, seg.count,
                  sink_pool_.begin() + end);
      seg.begin = end;
    }
    seg.capacity = std::max<std::uint32_t>(2 * seg.capacity, 1);
  }
  sink_pool_[seg.begin + seg.count++] = term;
}

void Module::detachTerm(NetId net_id, TermRef term, PortDir dir) {
  Net& n = net(net_id);
  const bool drives = (dir == PortDir::kOutput || dir == PortDir::kInout);
  if (drives && n.driver == term) {
    n.driver = TermRef{};
    return;
  }
  TermRef* const first = sink_pool_.data() + n.sinks.begin;
  TermRef* const last = first + n.sinks.count;
  TermRef* const it = std::find(first, last, term);
  if (it != last) {
    std::copy(it + 1, last, it);
    --n.sinks.count;
  }
}

void Module::copyContentFrom(const Module& src) {
  if (&src.names() != &names()) {
    fail("copyContentFrom across different name tables");
  }
  nets_ = src.nets_;
  cells_ = src.cells_;
  ports_ = src.ports_;
  pin_pool_ = src.pin_pool_;
  // The copy's sink segments are laid out densely, capacity == count: the
  // source's pool keeps the old slots of every segment that grew.
  std::size_t live = 0;
  for (const Net& n : nets_) live += n.sinks.count;
  sink_pool_.clear();
  sink_pool_.reserve(live);
  for (Net& n : nets_) {
    const SinkSegment seg = n.sinks;
    n.sinks = {static_cast<std::uint32_t>(sink_pool_.size()), seg.count,
               seg.count};
    sink_pool_.insert(sink_pool_.end(), src.sink_pool_.begin() + seg.begin,
                      src.sink_pool_.begin() + seg.begin + seg.count);
  }
  net_by_name_ = src.net_by_name_;
  cell_by_name_ = src.cell_by_name_;
  port_by_name_ = src.port_by_name_;
  live_nets_ = src.live_nets_;
  live_cells_ = src.live_cells_;
  const_net_[0] = src.const_net_[0];
  const_net_[1] = src.const_net_[1];
}

std::vector<std::string> Module::checkInvariants() const {
  std::vector<std::string> problems;
  auto report = [&](const std::string& s) { problems.push_back(s); };

  // Pool ranges first: the cross-link checks below index through them.
  auto pinsInPool = [&](const Cell& c) {
    return std::uint64_t{c.pin_begin} + c.pin_count <= pin_pool_.size();
  };
  auto segmentInPool = [&](const SinkSegment& s) {
    return s.count <= s.capacity &&
           std::uint64_t{s.begin} + s.capacity <= sink_pool_.size();
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> segments;
  forEachCell([&](CellId cid) {
    if (!pinsInPool(cells_[cid.index()])) {
      report("cell " + std::string(names().str(cells_[cid.index()].name)) +
             " pins outside the pin pool");
    }
  });
  forEachNet([&](NetId nid) {
    const Net& n = nets_[nid.index()];
    if (!segmentInPool(n.sinks)) {
      report("net " + std::string(names().str(n.name)) +
             " sink segment outside the sink pool");
    } else if (n.sinks.capacity != 0) {
      segments.emplace_back(n.sinks.begin, n.sinks.begin + n.sinks.capacity);
    }
  });
  std::sort(segments.begin(), segments.end());
  for (std::size_t i = 1; i < segments.size(); ++i) {
    if (segments[i].first < segments[i - 1].second) {
      report("sink segments overlap at pool slot " +
             std::to_string(segments[i].first));
    }
  }
  if (!problems.empty()) return problems;

  forEachCell([&](CellId cid) {
    const Cell& c = cells_[cid.index()];
    const std::span<const PinConn> cell_pins = pins(cid);
    for (std::size_t p = 0; p < cell_pins.size(); ++p) {
      const PinConn& pin = cell_pins[p];
      if (!pin.net.valid()) continue;
      if (pin.net.index() >= nets_.size() || !nets_[pin.net.index()].valid) {
        report("cell " + std::string(names().str(c.name)) +
               " pin references dead net");
        continue;
      }
      const Net& n = nets_[pin.net.index()];
      TermRef expect{TermKind::kCellPin, cid.value,
                     static_cast<std::uint16_t>(p)};
      if (pin.dir == PortDir::kOutput) {
        if (!(n.driver == expect)) {
          report("output pin of " + std::string(names().str(c.name)) +
                 " not registered as driver of " +
                 std::string(names().str(n.name)));
        }
      } else {
        const std::span<const TermRef> net_sinks = sinks(pin.net);
        if (std::find(net_sinks.begin(), net_sinks.end(), expect) ==
            net_sinks.end()) {
          report("input pin of " + std::string(names().str(c.name)) +
                 " not registered as sink of " +
                 std::string(names().str(n.name)));
        }
      }
    }
  });

  forEachNet([&](NetId nid) {
    const Net& n = nets_[nid.index()];
    auto checkTerm = [&](const TermRef& t, bool as_driver) {
      if (t.kind == TermKind::kNone || t.isConst()) return;
      if (t.isCellPin()) {
        if (t.index >= cells_.size() || !cells_[t.index].valid) {
          report("net " + std::string(names().str(n.name)) +
                 " references dead cell");
          return;
        }
        const std::span<const PinConn> cell_pins = pins(t.cell());
        if (t.pin >= cell_pins.size() || !(cell_pins[t.pin].net == nid)) {
          report("net " + std::string(names().str(n.name)) +
                 " terminal not mirrored on cell pin");
          return;
        }
        const bool pin_drives = cell_pins[t.pin].dir != PortDir::kInput;
        if (pin_drives != as_driver) {
          report("net " + std::string(names().str(n.name)) +
                 " direction mismatch with cell pin");
        }
      } else if (t.isPort()) {
        if (t.index >= ports_.size() || !(ports_[t.index].net == nid)) {
          report("net " + std::string(names().str(n.name)) +
                 " terminal not mirrored on port");
        }
      }
    };
    checkTerm(n.driver, /*as_driver=*/true);
    for (const TermRef& t : sinks(nid)) checkTerm(t, /*as_driver=*/false);
  });

  return problems;
}

// ---------------------------------------------------------------- Design

Module& Design::addModule(std::string_view name) {
  NameId nid = names().intern(name);
  if (!module_by_name_.insert(nid,
                              static_cast<std::uint32_t>(modules_.size()))) {
    fail("duplicate module name: " + std::string(name));
  }
  Module& m = modules_.emplace_back(*this, nid);
  if (top_ == nullptr) top_ = &m;
  return m;
}

Module* Design::findModule(std::string_view name) {
  return const_cast<Module*>(std::as_const(*this).findModule(name));
}

const Module* Design::findModule(std::string_view name) const {
  const NameId nid = names().find(name);
  return nid.valid() ? findModule(nid) : nullptr;
}

const Module* Design::findModule(NameId name) const {
  const std::uint32_t at = module_by_name_.find(name);
  return at == NameIndex::kNone ? nullptr : &modules_[at];
}

void Design::setTop(std::string_view name) {
  Module* m = findModule(name);
  if (m == nullptr) fail("setTop: no module named " + std::string(name));
  top_ = m;
}

Module& Design::top() {
  if (top_ == nullptr) fail("design has no top module");
  return *top_;
}

const Module& Design::top() const {
  if (top_ == nullptr) fail("design has no top module");
  return *top_;
}

}  // namespace desync::netlist
