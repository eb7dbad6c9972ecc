#include "core/eco.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "core/buffering.h"
#include "core/version.h"
#include "flowdb/io.h"
#include "liberty/library.h"
#include "trace/trace.h"

namespace desync::core {

using netlist::CellId;
using netlist::Module;
using netlist::NetId;
using netlist::PinConn;
using netlist::Port;
using netlist::PortDir;
using netlist::PortId;
using netlist::TermRef;

namespace {

constexpr std::string_view kSlotMagic = "DSYNCECO";

/// Diffing works on 64-bit FNV name hashes, never on recovered names: a
/// removed object surfaces through its neighbors' changed records, so no
/// reverse map is needed.  A cross-name collision would merge two objects'
/// diff slots (a ~1e-10 event at these sizes, see docs/eco.md);
/// the merged record then differs from both and the objects diff dirty —
/// the safe direction.
std::uint64_t nameHash(std::string_view name) {
  util::Fnv64 h;
  h.update(name);
  return h.digest();
}

/// Per-NameId FNV memo.  Record digests combine 64-bit name hashes
/// instead of re-hashing the strings: a net's name is absorbed by its own
/// record and again by every neighbor's, so each unique name is hashed
/// char-by-char exactly once per diff.  The memoized value is the plain
/// FNV of the string, so digests stay stable across processes (NameId
/// numbering is not).
class NameHashes {
 public:
  explicit NameHashes(const netlist::NameTable& names) : names_(names) {}
  std::uint64_t of(netlist::NameId id) {
    const std::size_t i = id.value;
    if (i >= done_.size()) {
      const std::size_t want = std::max(names_.size(), i + 1);
      done_.resize(want, 0);
      memo_.resize(want, 0);
    }
    if (done_[i] == 0) {
      done_[i] = 1;
      memo_[i] = nameHash(names_.str(id));
    }
    return memo_[i];
  }

 private:
  const netlist::NameTable& names_;
  std::vector<std::uint64_t> memo_;
  std::vector<std::uint8_t> done_;
};

// The record helpers take the module's raw slot arrays rather than going
// through the checked accessors: the digest visits every field of every
// object, and the per-access liveness validation is measurable there.
void hashTerm(util::Fnv64& h, const std::vector<netlist::Cell>& cells,
              const std::vector<Port>& ports, NameHashes& names,
              const TermRef& t) {
  h.u64(static_cast<std::uint64_t>(t.kind));
  if (t.isCellPin()) {
    h.u64(names.of(cells[t.cell().index()].name));
    h.u64(t.pin);
  } else if (t.isPort()) {
    h.u64(names.of(ports[t.port().index()].name));
  }
}

/// Everything a cell contributes to downstream passes: identity, type
/// (function, timing, sequential class), pin binding and the SDC-relevant
/// attributes.  Connected nets appear by name so a rebind dirties the cell.
std::uint64_t cellRecord(const netlist::Cell& cell,
                         const std::vector<netlist::Net>& nets,
                         NameHashes& names) {
  util::Fnv64 h;
  h.u64(names.of(cell.name));
  h.u64(names.of(cell.type));
  h.u64(cell.pins.size());
  for (const PinConn& pc : cell.pins) {
    h.u64(names.of(pc.name));
    h.u64(static_cast<std::uint64_t>(pc.dir));
    if (pc.net.valid()) {
      h.u64(1);
      h.u64(names.of(nets[pc.net.index()].name));
    } else {
      h.u64(0);
    }
  }
  h.u64(cell.size_only ? 1 : 0);
  h.u64(cell.dont_touch ? 1 : 0);
  return h.digest();
}

std::uint64_t netRecord(const netlist::Net& net,
                        const std::vector<netlist::Cell>& cells,
                        const std::vector<Port>& ports, NameHashes& names) {
  util::Fnv64 h;
  h.u64(names.of(net.name));
  if (net.bus.valid()) {
    h.u64(1);
    h.u64(names.of(net.bus.bus));
    h.u64(static_cast<std::uint64_t>(net.bus.bit));
  } else {
    h.u64(0);
  }
  hashTerm(h, cells, ports, names, net.driver);
  h.u64(net.sinks.size());
  for (const TermRef& s : net.sinks) hashTerm(h, cells, ports, names, s);
  h.u64(net.false_path ? 1 : 0);
  return h.digest();
}

std::uint64_t portRecord(const Port& p, const std::vector<netlist::Net>& nets,
                         NameHashes& names) {
  util::Fnv64 h;
  h.u64(names.of(p.name));
  h.u64(static_cast<std::uint64_t>(p.dir));
  if (p.net.valid()) {
    h.u64(1);
    h.u64(names.of(nets[p.net.index()].name));
  } else {
    h.u64(0);
  }
  if (p.bus.valid()) {
    h.u64(1);
    h.u64(names.of(p.bus.bus));
    h.u64(static_cast<std::uint64_t>(p.bus.bit));
  } else {
    h.u64(0);
  }
  return h.digest();
}

/// One slot per design: the module name, sanitized to a plain filename.
std::string slotNameFor(std::string_view module_name) {
  std::string s = "eco-";
  for (char c : module_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    s += ok ? c : '_';
  }
  s += ".tbl";
  return s;
}

bool isOutPortName(const std::string& name) {
  return name.rfind("out:", 0) == 0;
}

/// The tables' guard: every option the stored analyses depend on.  The
/// input design is absent (it is diffed against the stored records
/// instead), and so are margin, mux taps and the nominal tap: they only
/// size the delay elements, applied after the margin-free region
/// requirement and outside every proof obligation (arXiv 2004.10655).
/// --jobs never enters: the flow is deterministic across worker counts.
util::CacheKey ecoGuardKey(const DesyncOptions& options,
                           const liberty::Gatefile& gatefile) {
  util::KeyHasher h;
  h.str(kToolVersion);
  h.str(gatefile.library().name);
  h.u64(gatefile.library().contentHash());
  const GroupingOptions& grouping = options.grouping;
  h.u64(grouping.clean_logic ? 1 : 0);
  h.u64(grouping.bus_heuristic ? 1 : 0);
  h.u64(grouping.false_path_nets.size());
  for (const std::string& s : grouping.false_path_nets) h.str(s);
  h.str(options.clock_port);
  h.u64(options.manual_seq_groups.size());
  for (const auto& group : options.manual_seq_groups) {
    h.u64(group.size());
    for (const std::string& s : group) h.str(s);
  }
  h.u64(static_cast<std::uint64_t>(options.control.controller));
  h.str(options.control.reset_port);
  h.u64(options.control.reset_active_low ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(options.fe.mode));
  h.u64(options.fe.prove_max_conflicts);
  return h.key();
}

}  // namespace

std::unique_ptr<EcoContext> EcoContext::open(const DesyncOptions& options,
                                             const Module& module,
                                             const liberty::Gatefile& gatefile,
                                             FlowReport& flow) {
  if (options.flowdb.cache_dir.empty()) return nullptr;
  std::unique_ptr<flowdb::PassCache> cache;
  try {
    cache = std::make_unique<flowdb::PassCache>(options.flowdb.cache_dir);
  } catch (const flowdb::FlowDbError& e) {
    flow.note(std::string("flowdb disabled: ") + e.what());
    return nullptr;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<EcoContext> eco(
      new EcoContext(std::move(cache), module, gatefile,
                     ecoGuardKey(options, gatefile), flow));
  eco->open_ms_ = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  return eco;
}

EcoContext::EcoContext(std::unique_ptr<flowdb::PassCache> cache,
                       const Module& module, const liberty::Gatefile& gatefile,
                       const util::CacheKey& guard, FlowReport& flow)
    : cache_(std::move(cache)),
      input_module_(module),
      gatefile_(gatefile),
      guard_(guard),
      slot_name_(slotNameFor(module.name())) {
  trace::Span span("eco_diff", "eco");
  loadTables(flow);
  diffAndClose(flow);
  // The loaded digest arrays are diff input only; the module's own digests
  // (stored at finish()) are kept in cell_digests_/net_digests_/....
  stored_cells_ = {};
  stored_nets_ = {};
  stored_ports_ = {};
}

void EcoContext::loadTables(FlowReport& flow) {
  trace::Span span("eco_load", "eco");
  std::string diag;
  const std::optional<std::string> payload =
      cache_->loadSlot(slot_name_, kSlotMagic, &diag);
  if (!diag.empty()) flow.note("eco: " + diag);
  if (!payload.has_value()) return;  // first run: cold, tables stored later
  try {
    flowdb::ByteReader r(*payload);
    util::CacheKey stored_guard;
    stored_guard.hi = r.u64();
    stored_guard.lo = r.u64();
    const std::string stored_module(r.str());
    if (stored_guard != guard_) {
      flow.note(
          "eco: stored tables were built under a different flow "
          "configuration; running cold");
      return;
    }
    if (stored_module != input_module_.name()) {
      flow.note("eco: stored tables belong to design '" + stored_module +
                "'; running cold");
      return;
    }
    const auto byKey = [](const ObjectDigest& a, const ObjectDigest& b) {
      return a.key < b.key;
    };
    const auto readDigests = [&](std::vector<ObjectDigest>& v, bool typed) {
      const std::uint64_t n = r.u64();
      v.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        ObjectDigest d;
        d.key = r.u64();
        d.rec = r.u64();
        if (typed) d.type = r.u64();
        v.push_back(d);
      }
      std::sort(v.begin(), v.end(), byKey);
    };
    readDigests(stored_cells_, /*typed=*/true);
    readDigests(stored_nets_, /*typed=*/false);
    readDigests(stored_ports_, /*typed=*/false);
    const bool refsta_broken = r.u32() != 0;
    const std::uint64_t n_refsta = r.u64();
    stored_refsta_.reserve(static_cast<std::size_t>(n_refsta) * 2);
    for (std::uint64_t i = 0; i < n_refsta; ++i) {
      const std::string name(r.str());
      std::array<double, kCorners> vals{};
      for (double& v : vals) v = r.f64();
      stored_refsta_.emplace(name, vals);
    }
    if (refsta_broken) refsta_stored_usable_ = false;
    const std::uint64_t n_latches = r.u64();
    stored_latches_.reserve(static_cast<std::size_t>(n_latches) * 2);
    for (std::uint64_t i = 0; i < n_latches; ++i) {
      const std::string name(r.str());
      stored_latches_.emplace(name, r.f64());
    }
    const std::uint64_t n_symfe = r.u64();
    stored_symfe_.reserve(static_cast<std::size_t>(n_symfe) * 2);
    for (std::uint64_t i = 0; i < n_symfe; ++i) {
      const std::string name(r.str());
      sim::symfe::RestoredProof p;
      p.trivial = r.u32() != 0;
      p.conflicts = r.u64();
      p.decisions = r.u64();
      stored_symfe_.emplace(name, p);
    }
    if (!r.atEnd()) throw flowdb::FlowDbError("trailing bytes");
    warm_ = true;
  } catch (const flowdb::FlowDbError& e) {
    flow.note(std::string("eco: invalid region tables (") + e.what() +
              "); running cold");
    stored_cells_.clear();
    stored_nets_.clear();
    stored_ports_.clear();
    stored_refsta_.clear();
    stored_latches_.clear();
    stored_symfe_.clear();
    warm_ = false;
  }
}

void EcoContext::diffAndClose(FlowReport& flow) {
  const Module& m = input_module_;
  const netlist::NameTable& names = m.design().names();
  NameHashes name_hashes(names);

  std::vector<CellId> changed_cells;
  std::vector<NetId> changed_nets;
  std::vector<PortId> changed_ports;
  std::size_t matched_cells = 0;
  std::size_t matched_nets = 0;
  std::size_t matched_ports = 0;

  // Stored arrays are sorted by key (loadTables); lookups are binary
  // searches, and this run's digests accumulate in plain vectors — no
  // hash-map churn on the hot O(design) path.
  const auto findStored = [](const std::vector<ObjectDigest>& v,
                             std::uint64_t key) -> const ObjectDigest* {
    const auto it = std::lower_bound(
        v.begin(), v.end(), key,
        [](const ObjectDigest& d, std::uint64_t k) { return d.key < k; });
    return it != v.end() && it->key == key ? &*it : nullptr;
  };

  std::optional<trace::Span> digest_span;
  digest_span.emplace("eco_digest", "eco");
  const std::vector<netlist::Cell>& raw_cells = m.rawCells();
  const std::vector<netlist::Net>& raw_nets = m.rawNets();
  const std::vector<Port>& ports = m.ports();
  cell_digests_.reserve(m.numCells());
  net_digests_.reserve(m.numNets());
  for (std::uint32_t ci = 0; ci < raw_cells.size(); ++ci) {
    const netlist::Cell& cell = raw_cells[ci];
    if (!cell.valid) continue;
    const std::uint64_t key = name_hashes.of(cell.name);
    const std::uint64_t rec = cellRecord(cell, raw_nets, name_hashes);
    cell_digests_.push_back({key, rec, name_hashes.of(cell.type)});
    if (!warm_) continue;
    const ObjectDigest* stored = findStored(stored_cells_, key);
    if (stored != nullptr && stored->rec == rec) {
      ++matched_cells;
    } else {
      changed_cells.push_back(CellId{ci});
    }
  }
  for (std::uint32_t ni = 0; ni < raw_nets.size(); ++ni) {
    const netlist::Net& net = raw_nets[ni];
    if (!net.valid) continue;
    const std::uint64_t key = name_hashes.of(net.name);
    const std::uint64_t rec = netRecord(net, raw_cells, ports, name_hashes);
    net_digests_.push_back({key, rec, 0});
    if (!warm_) continue;
    const ObjectDigest* stored = findStored(stored_nets_, key);
    if (stored != nullptr && stored->rec == rec) {
      ++matched_nets;
    } else {
      changed_nets.push_back(NetId{ni});
    }
  }
  port_digests_.reserve(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const std::uint64_t key = name_hashes.of(ports[i].name);
    const std::uint64_t rec = portRecord(ports[i], raw_nets, name_hashes);
    port_digests_.push_back({key, rec, 0});
    if (!warm_) continue;
    const ObjectDigest* stored = findStored(stored_ports_, key);
    if (stored != nullptr && stored->rec == rec) {
      ++matched_ports;
    } else {
      changed_ports.push_back(PortId{static_cast<std::uint32_t>(i)});
    }
  }
  digest_span.reset();
  if (!warm_) return;

  // Removed objects have no id to point at, but they count as changes and
  // their former neighbors' records changed with them — the closure below
  // reaches everything a removal can affect through those neighbors.
  const std::size_t removed_cells = stored_cells_.size() - matched_cells;
  const std::size_t removed_nets = stored_nets_.size() - matched_nets;
  const std::size_t removed_ports = stored_ports_.size() - matched_ports;
  stats_.cells_changed =
      static_cast<std::int64_t>(changed_cells.size() + removed_cells);
  stats_.nets_changed =
      static_cast<std::int64_t>(changed_nets.size() + removed_nets);

  const std::size_t changed = changed_cells.size() + removed_cells +
                              changed_nets.size() + removed_nets +
                              changed_ports.size() + removed_ports;
  const std::size_t total = m.numCells() + m.numNets() + ports.size();
  if (changed * 4 > total) {
    // Not an ECO anymore: the closure would dirty nearly everything and
    // the bookkeeping would only add overhead to a full recompute.
    flow.note("eco: " + std::to_string(changed) + " of " +
              std::to_string(total) +
              " objects changed; treating as a cold run");
    warm_ = false;
    return;
  }

  try {
    // Forward closure: follow the edit through combinational fan-out to
    // the sequential boundary.  Sequential sinks (and changed sequential
    // cells themselves) become dirty endpoints; clock gates are dirty
    // endpoints *and* transparent, because the registers they gate see a
    // changed capture condition.
    std::vector<std::uint8_t> net_seen(m.netCapacity(), 0);
    std::vector<std::uint32_t> work;
    const auto pushNet = [&](NetId n) {
      if (!n.valid() || net_seen[n.index()] != 0) return;
      net_seen[n.index()] = 1;
      work.push_back(n.index());
    };
    for (NetId n : changed_nets) pushNet(n);
    for (PortId p : changed_ports) {
      const Port& port = m.port(p);
      pushNet(port.net);
      if (port.dir != PortDir::kInput) {
        dirty_endpoints_.insert("out:" + std::string(names.str(port.name)));
      }
    }
    for (CellId c : changed_cells) {
      if (gatefile_.kind(m.cellType(c)) !=
          liberty::CellKind::kCombinational) {
        dirty_endpoints_.insert(std::string(m.cellName(c)));
      }
      for (const PinConn& pc : m.cell(c).pins) {
        if (pc.dir != PortDir::kInput) pushNet(pc.net);
      }
    }
    while (!work.empty()) {
      const NetId n{work.back()};
      work.pop_back();
      for (const TermRef& s : m.net(n).sinks) {
        if (s.isPort()) {
          const Port& port = m.port(s.port());
          if (port.dir != PortDir::kInput) {
            dirty_endpoints_.insert("out:" +
                                    std::string(names.str(port.name)));
          }
          continue;
        }
        if (!s.isCellPin()) continue;
        const CellId c = s.cell();
        const liberty::CellKind kind = gatefile_.kind(m.cellType(c));
        if (kind != liberty::CellKind::kCombinational) {
          dirty_endpoints_.insert(std::string(m.cellName(c)));
          if (kind != liberty::CellKind::kClockGate) continue;
        }
        for (const PinConn& pc : m.cell(c).pins) {
          if (pc.dir != PortDir::kInput) pushNet(pc.net);
        }
      }
    }

    // Timing-only closure: a cell whose *type* changed in place changes
    // its input pin caps, so the loads of its input nets move and with
    // them the delay of every arc *into* those nets — sibling sinks see
    // new arrivals even though no logic function changed.  Only type
    // swaps seed this (pin caps are a property of the type; a binding
    // change always dirties the affected nets' own records).  Clock nets
    // may enter here (a swapped register pushes its CK net), which is
    // why sequential sinks are dirtied only through timing-endpoint
    // pins: arrival at a pure clock net has no timing consumer, and
    // marking the whole net's registers functionally dirty would discard
    // their symfe proofs for an edit that cannot change their next-state
    // function.
    std::vector<std::uint8_t> timing_seen = net_seen;  // functional nets
                                                       // are already dirty
    std::vector<std::uint32_t> twork;
    // Every dirty net, for the cleaning walk-back below.
    std::vector<std::uint32_t> walk;
    for (std::uint32_t ni = 0; ni < net_seen.size(); ++ni) {
      if (net_seen[ni] != 0) walk.push_back(ni);
    }
    const auto pushTiming = [&](NetId tn) {
      if (!tn.valid() || timing_seen[tn.index()] != 0) return;
      timing_seen[tn.index()] = 1;
      twork.push_back(tn.index());
      walk.push_back(tn.index());
    };
    for (CellId c : changed_cells) {
      const ObjectDigest* stored =
          findStored(stored_cells_, name_hashes.of(m.cell(c).name));
      // New cell: every net it touches has a changed sink list, so the
      // functional closure already owns the load effect.
      if (stored == nullptr) continue;
      if (stored->type == name_hashes.of(m.cell(c).type)) continue;
      for (const PinConn& pc : m.cell(c).pins) {
        if (pc.dir == PortDir::kInput) pushTiming(pc.net);
      }
    }
    const auto isEndpointPin = [&](CellId c, std::uint32_t pin) {
      const liberty::SeqClass* sc = gatefile_.seqClass(m.cellType(c));
      if (sc == nullptr) return false;
      const std::string_view pn = names.str(m.cell(c).pins[pin].name);
      return pn == sc->data_pin ||
             (!sc->scan_in.empty() && pn == sc->scan_in) ||
             (!sc->scan_enable.empty() && pn == sc->scan_enable) ||
             (!sc->sync_pin.empty() && pn == sc->sync_pin);
    };
    const auto markTiming = [&](std::string name) {
      if (dirty_endpoints_.count(name) == 0) {
        timing_dirty_.insert(std::move(name));
      }
    };
    // Logic cleaning (buffer removal, inverter-pair collapse) runs before
    // region timing and splices nets across buffer/inverter chains, so an
    // edit at a dirty net can move the load of the chain's root net
    // upstream — and with it the arrival at every sibling sink of that
    // root.  Cleaning preserves function, so the roots close over
    // timing-only: walk back from every dirty net through buffer and
    // inverter drivers.
    const auto walkBack = [&] {
      while (!walk.empty()) {
        const NetId wn{walk.back()};
        walk.pop_back();
        const TermRef& d = m.net(wn).driver;
        if (!d.isCellPin()) continue;
        const std::string_view type = m.cellType(d.cell());
        if (!gatefile_.isBuffer(type) && !gatefile_.isInverter(type)) {
          continue;
        }
        for (const PinConn& pc : m.cell(d.cell()).pins) {
          if (pc.dir == PortDir::kInput) pushTiming(pc.net);
        }
      }
    };
    walkBack();
    while (!twork.empty()) {
      const NetId tn{twork.back()};
      twork.pop_back();
      for (const TermRef& s : m.net(tn).sinks) {
        if (s.isPort()) {
          const Port& port = m.port(s.port());
          if (port.dir != PortDir::kInput) {
            markTiming("out:" + std::string(names.str(port.name)));
          }
          continue;
        }
        if (!s.isCellPin()) continue;
        const CellId c = s.cell();
        if (gatefile_.kind(m.cellType(c)) ==
            liberty::CellKind::kCombinational) {
          for (const PinConn& pc : m.cell(c).pins) {
            if (pc.dir != PortDir::kInput) pushTiming(pc.net);
          }
          continue;
        }
        // Sequential sink: nothing propagates through (the STA has no
        // arcs through sequential cells), and only endpoint pins consume
        // this net's arrival.
        if (isEndpointPin(c, s.pin)) markTiming(std::string(m.cellName(c)));
      }
      if (twork.empty()) walkBack();
    }

    // Backward closure: the dirty endpoints' full combinational fan-in,
    // the mask the masked reference STA runs under.  Stops at any
    // non-combinational driver, mirroring the arcs the STA graph has.
    refsta_mask_.assign(m.netCapacity(), 0);
    std::vector<std::uint32_t> back;
    const auto pushMask = [&](NetId n) {
      if (!n.valid() || refsta_mask_[n.index()] != 0) return;
      refsta_mask_[n.index()] = 1;
      back.push_back(n.index());
    };
    const auto seedMask = [&](const std::string& name) {
      if (isOutPortName(name)) {
        const PortId p = m.findPort(std::string_view(name).substr(4));
        if (p.valid()) pushMask(m.port(p).net);
        return;
      }
      const CellId c = m.findCell(name);
      if (!c.valid()) return;
      for (const PinConn& pc : m.cell(c).pins) {
        if (pc.dir == PortDir::kInput) pushMask(pc.net);
      }
    };
    for (const std::string& name : dirty_endpoints_) seedMask(name);
    for (const std::string& name : timing_dirty_) seedMask(name);
    while (!back.empty()) {
      const NetId n{back.back()};
      back.pop_back();
      const TermRef& d = m.net(n).driver;
      if (!d.isCellPin()) continue;
      if (gatefile_.kind(m.cellType(d.cell())) !=
          liberty::CellKind::kCombinational) {
        continue;
      }
      for (const PinConn& pc : m.cell(d.cell()).pins) {
        if (pc.dir == PortDir::kInput) pushMask(pc.net);
      }
    }
  } catch (const std::exception& e) {
    flow.note(std::string("eco: dirty-closure failed (") + e.what() +
              "); running cold");
    dirty_endpoints_.clear();
    timing_dirty_.clear();
    refsta_mask_.clear();
    warm_ = false;
    return;
  }
  // Reported as documented: the registers the functional closure reached
  // (dirtied output ports and timing-only endpoints keep their proofs or
  // have none), i.e. exactly the registers a warm prove run re-proves.
  for (const std::string& name : dirty_endpoints_) {
    const CellId c = m.findCell(name);
    if (c.valid() &&
        gatefile_.kind(m.cellType(c)) == liberty::CellKind::kFlipFlop) {
      ++stats_.dirty_endpoints;
    }
  }

  // Proofs that survive the edit: stored kProved verdicts of registers
  // that still exist, are still flip-flops and are not *functionally*
  // dirty.  timing_dirty_ registers keep their proofs — load coupling
  // moves arrivals, never the next-state function the proofs are about.
  restorable_proofs_.reserve(stored_symfe_.size() * 2);
  for (const auto& [name, proof] : stored_symfe_) {
    if (dirty_endpoints_.count(name) != 0) continue;
    const CellId c = m.findCell(name);
    if (!c.valid()) continue;
    if (gatefile_.kind(m.cellType(c)) != liberty::CellKind::kFlipFlop) {
      continue;
    }
    restorable_proofs_.emplace(name, proof);
  }
}

bool EcoContext::endpointLive(const Module& m,
                              const std::string& name) const {
  if (isOutPortName(name)) {
    const PortId p = m.findPort(std::string_view(name).substr(4));
    if (!p.valid()) return false;
    const Port& port = m.port(p);
    return port.dir != PortDir::kInput && port.net.valid();
  }
  const CellId c = m.findCell(name);
  if (!c.valid()) return false;
  return gatefile_.kind(m.cellType(c)) != liberty::CellKind::kCombinational;
}

const std::vector<std::uint8_t>* EcoContext::refstaMask() const {
  if (!warm_ || !refsta_stored_usable_) return nullptr;
  return &refsta_mask_;
}

std::vector<double> EcoContext::referencePeriods(
    const Module& m,
    const std::vector<std::unique_ptr<sta::Sta>>& analyses) {
  const netlist::NameTable& names = m.design().names();
  // Broken timing loops make arrivals depend on the global cut choice;
  // per-endpoint values are then not reusable across edits, in either
  // direction (this run's table gets flagged, stored entries dropped).
  bool broken = false;
  for (const auto& a : analyses) {
    if (!a->brokenArcs().empty()) broken = true;
  }
  if (broken) {
    new_refsta_broken_ = true;
    refsta_stored_usable_ = false;
  }

  new_refsta_.clear();
  new_refsta_.reserve(stored_refsta_.size() * 2 + 64);
  std::int64_t restored = 0;
  if (warm_ && refsta_stored_usable_) {
    trace::Span span("endpoint_restore", "eco");
    for (const auto& [name, vals] : stored_refsta_) {
      if (timingDirty(name)) continue;
      if (!endpointLive(m, name)) continue;
      new_refsta_.emplace(name, vals);
      ++restored;
    }
  }
  stats_.endpoints_restored = restored;

  std::unordered_map<std::uint32_t, std::string_view> port_names;
  for (const Port& p : m.ports()) {
    if (p.dir != PortDir::kInput && p.net.valid()) {
      port_names.emplace(p.net.index(), names.str(p.name));
    }
  }
  // Fold in the recomputed endpoints (the dirty cones under a mask, or
  // everything on a cold run).  A masked analysis reports the exact
  // unmasked arrival at every masked endpoint, so max(stored, recomputed)
  // equals the full value whether an endpoint was restored, recomputed or
  // both.
  for (std::size_t c = 0; c < analyses.size() && c < kCorners; ++c) {
    for (const sta::Sta::EndpointWorst& ew : analyses[c]->endpointWorsts()) {
      std::string name;
      if (ew.is_port) {
        const auto it = port_names.find(ew.net);
        if (it == port_names.end()) continue;
        name = "out:" + std::string(it->second);
      } else {
        name = std::string(m.cellName(ew.cell));
      }
      auto [slot, inserted] = new_refsta_.try_emplace(
          std::move(name), std::array<double, kCorners>{});
      slot->second[c] = std::max(slot->second[c], ew.worst);
    }
  }
  // Per-corner max over the merged table: Sta::minPeriodNs() floors at
  // 0.0 and fp max is order-independent, so this reproduces the unmasked
  // periods bit for bit.
  std::vector<double> periods(kCorners, 0.0);
  for (const auto& [name, vals] : new_refsta_) {
    for (std::size_t c = 0; c < kCorners; ++c) {
      periods[c] = std::max(periods[c], vals[c]);
    }
  }
  return periods;
}

EcoContext::RegionTimingOutcome EcoContext::regionTiming(
    Module& m, const liberty::Gatefile& gatefile, const Regions& regions) {
  RegionTimingOutcome out;
  out.timing.per_level_delay_ns = characterizeDelayStageNs(gatefile);

  // Output mutation, never skipped: the emitted netlist must carry the
  // buffer trees whether or not any timing was restored.
  {
    trace::Span span("eco_rt_buffers", "eco");
    insertBufferTrees(m, gatefile);
  }

  const std::size_t n = regions.seq_cells.size();
  out.timing.required_delay_ns.assign(n, 0.0);
  stats_.regions_total = static_cast<std::int64_t>(n);

  // Member master latches per region: the live "<ff>_Lm" cells
  // substitution appended to seq_cells.  Stale ids of the replaced
  // flip-flops and the "<ff>_cenLm" glue latches fail the liveness or
  // suffix test, exactly as regionWorstDelays() skips them.  A latch is
  // dirty when its register's timing can have moved (either closure) or
  // the previous run stored no worst for it (new register, or its
  // arrival was unreached); a region is dirty when any member latch is.
  constexpr std::string_view kSuffix = "_Lm";
  struct Latch {
    CellId cell;
    std::string orig;  ///< original register name (the table key)
    bool dirty;
  };
  std::vector<std::vector<Latch>> latches(n);
  std::size_t n_dirty = 0;
  std::size_t n_dirty_latches = 0;
  for (std::size_t g = 0; g < n; ++g) {
    bool region_dirty = false;
    for (CellId c : regions.seq_cells[g]) {
      if (!m.isLiveCell(c)) continue;
      const std::string_view name = m.cellName(c);
      if (name.size() < kSuffix.size() ||
          name.substr(name.size() - kSuffix.size()) != kSuffix) {
        continue;
      }
      Latch l;
      l.cell = c;
      l.orig = std::string(name.substr(0, name.size() - kSuffix.size()));
      l.dirty = !warm_ || timingDirty(l.orig) ||
                stored_latches_.count(l.orig) == 0;
      if (l.dirty) {
        region_dirty = true;
        ++n_dirty_latches;
      }
      latches[g].push_back(std::move(l));
    }
    n_dirty += region_dirty ? 1 : 0;
  }

  // Worst arrival+setup per endpoint cell.  Per-cell max over a cell's
  // endpoints, then a per-region max over member latches, reproduces
  // regionWorstDelays() bit for bit: fp max is order-independent and
  // max(r,f)+setup == max(r+setup, f+setup) exactly.
  const auto cellWorsts = [](const sta::Sta& sta) {
    std::unordered_map<std::uint32_t, double> w;
    for (const sta::Sta::EndpointWorst& e : sta.endpointWorsts()) {
      if (e.is_port || !e.cell.valid()) continue;
      auto [it, inserted] = w.try_emplace(e.cell.index(), e.worst);
      if (!inserted) it->second = std::max(it->second, e.worst);
    }
    return w;
  };

  // A full analysis that had to cut loops records no worsts: its arrivals
  // depend on cut choices a later masked run would not see.
  const auto computeFull = [&] {
    sta::Sta sta(m, gatefile);
    const bool record_ok = sta.brokenArcs().empty();
    const std::unordered_map<std::uint32_t, double> w = cellWorsts(sta);
    for (std::size_t g = 0; g < n; ++g) {
      double req = 0.0;
      for (const Latch& l : latches[g]) {
        const auto it = w.find(l.cell.index());
        if (it == w.end()) continue;
        req = std::max(req, it->second);
        if (record_ok) new_latches_[l.orig] = it->second;
      }
      out.timing.required_delay_ns[g] = req;
    }
    n_dirty = n;
  };

  // The masked path pays off whenever most *latches* are clean — even
  // with every region dirty (one-region designs land here: a handful of
  // dirty latches re-time under a mask and the clean members merge their
  // stored worsts).  Full recompute when the edit dirtied too much for
  // the bookkeeping to win.
  std::size_t n_latches_total = 0;
  for (const std::vector<Latch>& list : latches) {
    n_latches_total += list.size();
  }
  if (!warm_ || n_latches_total == 0 ||
      n_dirty_latches * 4 > n_latches_total) {
    computeFull();
  } else {
    bool masked_ok = true;
    std::unordered_map<std::uint32_t, double> recomputed;
    if (n_dirty_latches > 0) {
      // Mask: the dirty latches' fan-in only (same backward closure as
      // the reference-STA mask, on the substituted module) — the clean
      // members of a dirty region restore their stored worsts instead.
      std::vector<std::uint8_t> mask(m.netCapacity(), 0);
      std::vector<std::uint32_t> back;
      const auto push = [&](NetId nid) {
        if (!nid.valid() || mask[nid.index()] != 0) return;
        mask[nid.index()] = 1;
        back.push_back(nid.index());
      };
      for (std::size_t g = 0; g < n; ++g) {
        for (const Latch& l : latches[g]) {
          if (!l.dirty) continue;
          for (const PinConn& pc : m.cell(l.cell).pins) {
            if (pc.dir == PortDir::kInput) push(pc.net);
          }
        }
      }
      while (!back.empty()) {
        const NetId nid{back.back()};
        back.pop_back();
        const TermRef& d = m.net(nid).driver;
        if (!d.isCellPin()) continue;
        if (gatefile.kind(m.cellType(d.cell())) !=
            liberty::CellKind::kCombinational) {
          continue;
        }
        for (const PinConn& pc : m.cell(d.cell()).pins) {
          if (pc.dir == PortDir::kInput) push(pc.net);
        }
      }
      sta::StaOptions so;
      so.net_mask = &mask;
      trace::Span span("eco_rt_sta", "eco");
      sta::Sta sta(m, gatefile, so);
      if (!sta.brokenArcs().empty()) {
        // A loop threads the dirty cones; masked arrivals would depend
        // on cut choices the stored values did not see.
        masked_ok = false;
      } else {
        recomputed = cellWorsts(sta);
      }
    }
    if (masked_ok) {
      trace::Span span("region_restore", "eco");
      for (std::size_t g = 0; g < n; ++g) {
        for (const Latch& l : latches[g]) {
          // A clean latch inside a dirty cone's mask gets recomputed to
          // the same value it stored; prefer the recomputed entry, fall
          // back to the stored one.  A dirty latch missing from the
          // masked result has no reached endpoint and contributes
          // nothing, matching the full run.
          const auto rit = recomputed.find(l.cell.index());
          double v = 0.0;
          bool has = false;
          if (rit != recomputed.end()) {
            v = rit->second;
            has = true;
          } else if (!l.dirty) {
            v = stored_latches_.at(l.orig);
            has = true;
          }
          if (!has) continue;
          new_latches_[l.orig] = v;
          out.timing.required_delay_ns[g] =
              std::max(out.timing.required_delay_ns[g], v);
        }
      }
    } else {
      computeFull();
    }
  }

  out.dirty = static_cast<std::int64_t>(n_dirty);
  out.restored = static_cast<std::int64_t>(n - n_dirty);
  stats_.regions_dirty = out.dirty;
  stats_.regions_restored = out.restored;
  return out;
}

void EcoContext::recordSymfe(const sim::symfe::SymfeReport& report) {
  stats_.registers_restored = static_cast<std::int64_t>(report.restored);
  new_symfe_.clear();
  if (!report.comb_only) {
    for (const sim::symfe::RegisterProof& p : report.registers) {
      if (p.verdict != sim::symfe::RegVerdict::kProved) continue;
      new_symfe_[p.name] =
          sim::symfe::RestoredProof{p.trivial, p.conflicts, p.decisions};
    }
  }
}

void EcoContext::finish(FlowReport& flow, double compute_ms) {
  trace::Span span("eco_store", "eco");
  flowdb::ByteWriter w;
  w.u64(guard_.hi);
  w.u64(guard_.lo);
  w.str(input_module_.name());
  const auto writeDigests = [&w](const std::vector<ObjectDigest>& v,
                                 bool typed) {
    w.u64(v.size());
    for (const ObjectDigest& d : v) {
      w.u64(d.key);
      w.u64(d.rec);
      if (typed) w.u64(d.type);
    }
  };
  writeDigests(cell_digests_, /*typed=*/true);
  writeDigests(net_digests_, /*typed=*/false);
  writeDigests(port_digests_, /*typed=*/false);
  w.u32(new_refsta_broken_ ? 1 : 0);
  w.u64(new_refsta_.size());
  for (const auto& [name, vals] : new_refsta_) {
    w.str(name);
    for (const double v : vals) w.f64(v);
  }
  w.u64(new_latches_.size());
  for (const auto& [name, worst] : new_latches_) {
    w.str(name);
    w.f64(worst);
  }
  w.u64(new_symfe_.size());
  for (const auto& [name, p] : new_symfe_) {
    w.str(name);
    w.u32(p.trivial ? 1 : 0);
    w.u64(p.conflicts);
    w.u64(p.decisions);
  }
  if (!cache_->storeSlot(slot_name_, kSlotMagic, w.bytes())) {
    flow.note("eco: failed to store the region tables");
  }
  stats_.warm = warm_;
  flow.setEco(stats_);
  // Published after the store, so bytes_written counts the tables.
  const flowdb::CacheStats& cs = cache_->stats();
  FlowCacheStats stats;
  stats.enabled = true;
  stats.hits = warm_ ? 1 : 0;
  stats.misses = 1 - stats.hits;
  stats.bytes_read = cs.bytes_read;
  stats.bytes_written = cs.bytes_written;
  stats.restore_ms = open_ms_;
  stats.compute_ms = compute_ms;
  flow.setCacheStats(stats);
}

}  // namespace desync::core
