// Gate-level netlist database.
//
// A Design owns a set of Modules sharing one NameTable.  A Module is a flat
// graph of cell instances and nets; hierarchy is expressed by instantiating
// another Module of the same Design as a cell (resolved by type name) and is
// normally removed with flatten() before desynchronization, mirroring the
// paper's gate-level-only operating point (thesis §3.2.1).
//
// The database maintains full connectivity in both directions: every net
// knows its driver and sinks, every cell pin knows its net.  All mutation
// goes through Module member functions which keep the two views consistent;
// checkInvariants() verifies the cross-links after algorithmic passes.
//
// Connectivity is stored flat: a Module keeps every cell pin in one
// module-wide pin pool and every net sink in one module-wide sink pool, so
// nothing is allocated per cell or per net.  A cell owns a fixed range of
// the pin pool; a net owns a segment of the sink pool that moves to the end
// of the pool with doubled capacity when it fills.  Reads go through
// Module::pins(CellId) and Module::sinks(NetId); the spans they return are
// invalidated by the next mutation of the module.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netlist/ids.h"
#include "netlist/names.h"

namespace desync::netlist {

/// Error raised on netlist consistency violations (double driver, dangling
/// id, duplicate name, ...).
class NetlistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class PortDir : std::uint8_t { kInput, kOutput, kInout };

/// Kind of object a net terminal refers to.
enum class TermKind : std::uint8_t {
  kNone,     ///< unconnected
  kCellPin,  ///< pin `pin` of cell `index`
  kPort,     ///< top-level port `index`
  kConst0,   ///< constant-zero driver
  kConst1,   ///< constant-one driver
};

/// One endpoint of a net: a cell pin, a module port, or a constant source.
struct TermRef {
  TermKind kind = TermKind::kNone;
  std::uint32_t index = 0;  ///< CellId / PortId value depending on kind
  std::uint16_t pin = 0;    ///< pin index within the cell, for kCellPin

  [[nodiscard]] bool isCellPin() const { return kind == TermKind::kCellPin; }
  [[nodiscard]] bool isPort() const { return kind == TermKind::kPort; }
  [[nodiscard]] bool isConst() const {
    return kind == TermKind::kConst0 || kind == TermKind::kConst1;
  }
  [[nodiscard]] CellId cell() const { return CellId{index}; }
  [[nodiscard]] PortId port() const { return PortId{index}; }

  friend bool operator==(const TermRef& a, const TermRef& b) {
    return a.kind == b.kind && a.index == b.index && a.pin == b.pin;
  }
};

/// Membership of a scalar net in a named bus, e.g. data[3] -> {data, 3}.
/// Recorded at parse/build time; the grouping algorithm's by-name bus
/// heuristic (thesis §3.2.2 "Buses") consumes it.
struct BusRef {
  NameId bus;       ///< invalid when the net is a plain scalar
  std::int32_t bit = 0;

  [[nodiscard]] bool valid() const { return bus.valid(); }
};

/// Connection of one cell pin to a net.
struct PinConn {
  NameId name;                 ///< pin name in the cell's type (e.g. "A", "Q")
  PortDir dir = PortDir::kInput;
  NetId net;                   ///< invalid when the pin is left unconnected
};

/// A cell instance.  Its pins are the range [pin_begin, pin_begin +
/// pin_count) of the module's pin pool, read through Module::pins; the
/// count is fixed when the cell is added.
struct Cell {
  NameId name;
  NameId type;              ///< library cell or module name
  std::uint32_t pin_begin = 0;
  std::uint32_t pin_count = 0;
  bool valid = true;        ///< false once removed (slot tombstoned)
  bool size_only = false;   ///< SDC set_size_only: resizing allowed, no resynthesis
  bool dont_touch = false;  ///< excluded from optimization passes
};

/// A net's segment of the module's sink pool: its sinks are the range
/// [begin, begin + size()) of the pool, read through Module::sinks, and
/// `capacity` slots from `begin` are reserved for it.
struct SinkSegment {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
  std::uint32_t capacity = 0;

  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] bool empty() const { return count == 0; }
};

/// A net (single scalar wire).
struct Net {
  NameId name;
  BusRef bus;                  ///< bus membership, if any
  TermRef driver;              ///< kNone when undriven
  SinkSegment sinks;           ///< input cell pins and output ports
  bool valid = true;
  bool false_path = false;  ///< user-marked: ignored by grouping (thesis §3.2.2)
};

/// A top-level module port.
struct Port {
  NameId name;
  PortDir dir = PortDir::kInput;
  NetId net;
  BusRef bus;
};

class Design;

/// A flat module: cells + nets + ports with bidirectional connectivity.
class Module {
 public:
  Module(Design& design, NameId name);

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;

  [[nodiscard]] NameId nameId() const { return name_; }
  [[nodiscard]] std::string_view name() const;
  [[nodiscard]] Design& design() { return *design_; }
  [[nodiscard]] const Design& design() const { return *design_; }

  // --- nets -----------------------------------------------------------

  /// Creates a scalar net.  Throws NetlistError on duplicate name.
  NetId addNet(std::string_view name);
  /// Creates a net that is bit `bit` of bus `bus_name` (net name is usually
  /// "bus[bit]" but any unique name is accepted).
  NetId addNet(std::string_view name, std::string_view bus_name,
               std::int32_t bit);
  /// Same over an interned name (and bus membership, if any); the string
  /// overloads intern and call this one.
  NetId addNet(NameId name, BusRef bus = {});
  /// Returns the net named `name`, or an invalid id.
  [[nodiscard]] NetId findNet(std::string_view name) const;
  [[nodiscard]] NetId findNet(NameId name) const;
  /// Lazily creates and returns the module's constant-0 / constant-1 net.
  NetId constNet(bool value);
  /// Removes a net.  All connected pins/ports are disconnected first.
  void removeNet(NetId id);
  /// Moves every sink of `from` onto `to` and removes `from`.  The driver of
  /// `from` (if any) is disconnected.  Used by buffer-removal cleaning.
  void mergeNetInto(NetId from, NetId to);

  /// A live net; throws NetlistError on a removed one.
  [[nodiscard]] Net& net(NetId id) {
    return const_cast<Net&>(std::as_const(*this).net(id));
  }
  [[nodiscard]] const Net& net(NetId id) const {
    const Net& n = nets_.at(id.index());
    if (!n.valid) removedAccess("net");
    return n;
  }
  /// Sinks of a live net, in attach order (an erase keeps the others'
  /// order).  Invalidated by the next mutation of the module.
  [[nodiscard]] std::span<const TermRef> sinks(NetId id) const {
    const SinkSegment& s = net(id).sinks;
    return {sink_pool_.data() + s.begin, s.count};
  }
  [[nodiscard]] std::string_view netName(NetId id) const;
  [[nodiscard]] std::size_t numNets() const { return live_nets_; }
  /// Slots of the sink pool: live sinks plus the reserve and the old
  /// slots that grown segments left behind.
  [[nodiscard]] std::size_t sinkPoolSize() const { return sink_pool_.size(); }
  [[nodiscard]] std::uint32_t netCapacity() const {
    return static_cast<std::uint32_t>(nets_.size());
  }

  // --- cells ----------------------------------------------------------

  /// Pin specification for addCell.  Owns the pin name so callers can build
  /// specs from temporaries safely.
  struct PinInit {
    std::string name;
    PortDir dir = PortDir::kInput;
    NetId net;  ///< may be invalid for an unconnected pin
  };

  /// Creates a cell instance of `type` and wires its pins.  Output pins
  /// become drivers of their nets (double drive throws), inputs become sinks.
  /// Interns the names (instance, type, then each pin) and calls the
  /// id-taking overload.
  CellId addCell(std::string_view name, std::string_view type,
                 const std::vector<PinInit>& pins);
  /// Same over interned names: `pins` gives each pin's name, direction and
  /// net (invalid = unconnected).  `pins` must not view this module's own
  /// pin pool (copy a pins() span first).
  CellId addCell(NameId name, NameId type, std::span<const PinConn> pins);
  [[nodiscard]] CellId findCell(std::string_view name) const;
  /// Disconnects and tombstones the cell.
  void removeCell(CellId id);
  /// Disconnects and tombstones every cell in `ids` in one sweep over the
  /// module's nets.  Equivalent to calling removeCell on each id (same
  /// final sink order), but O(nets + sinks) total where per-cell removal
  /// pays one sinks-vector scan per disconnected pin — quadratic when many
  /// removed cells share a net (a clock, a reset).
  void removeCells(const std::vector<CellId>& ids);
  /// Re-homes cell-pin sinks of `from` in one pass: sink i moves to
  /// `assign[i]` when that id is valid (the pin is rewired and appended to
  /// the target net's sinks in index order); invalid ids, `from` itself,
  /// ports and the driver stay put.  `assign` is indexed by `from`'s current sink order.
  /// Equivalent to connectPin per moved sink but O(sinks) total.
  void redistributeSinks(NetId from, const std::vector<NetId>& assign);

  /// Connects pin `pin_index` of `cell` to `net` (disconnecting any previous
  /// net on that pin).
  void connectPin(CellId cell, std::size_t pin_index, NetId net);
  void disconnectPin(CellId cell, std::size_t pin_index);
  /// Finds a pin index by name on a cell; returns npos when absent.
  [[nodiscard]] std::size_t findPin(CellId cell, std::string_view pin) const;
  /// Net connected to named pin of cell, or invalid id.
  [[nodiscard]] NetId pinNet(CellId cell, std::string_view pin) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// A live cell; throws NetlistError on a removed one.
  [[nodiscard]] Cell& cell(CellId id) {
    return const_cast<Cell&>(std::as_const(*this).cell(id));
  }
  [[nodiscard]] const Cell& cell(CellId id) const {
    const Cell& c = cells_.at(id.index());
    if (!c.valid) removedAccess("cell");
    return c;
  }
  /// Pins of a live cell, in the order addCell was given them.
  /// Invalidated by the next mutation of the module.
  [[nodiscard]] std::span<const PinConn> pins(CellId id) const {
    const Cell& c = cell(id);
    return {pin_pool_.data() + c.pin_begin, c.pin_count};
  }
  /// True when the id refers to a live (not removed) cell.
  [[nodiscard]] bool isLiveCell(CellId id) const {
    return id.valid() && id.index() < cells_.size() &&
           cells_[id.index()].valid;
  }
  [[nodiscard]] std::string_view cellName(CellId id) const;
  [[nodiscard]] std::string_view cellType(CellId id) const;
  [[nodiscard]] std::size_t numCells() const { return live_cells_; }
  [[nodiscard]] std::uint32_t cellCapacity() const {
    return static_cast<std::uint32_t>(cells_.size());
  }

  /// Capacity hint for bulk construction (the Verilog reader): room for
  /// `cells` cells, `nets` nets, `pins` cell pins and `ports` ports, so
  /// the arrays, pools and by-name indices do not regrow on the way there.
  void reserve(std::size_t cells, std::size_t nets, std::size_t pins,
               std::size_t ports);

  /// Renames an existing cell (new name must be unused).
  void renameCell(CellId id, std::string_view new_name);

  // --- ports ----------------------------------------------------------

  PortId addPort(std::string_view name, PortDir dir, NetId net);
  PortId addPort(std::string_view name, PortDir dir, NetId net,
                 std::string_view bus_name, std::int32_t bit);
  /// Same over an interned name (and bus membership, if any); the string
  /// overloads intern and call this one.
  PortId addPort(NameId name, PortDir dir, NetId net, BusRef bus = {});
  [[nodiscard]] PortId findPort(std::string_view name) const;
  [[nodiscard]] PortId findPort(NameId name) const;
  [[nodiscard]] Port& port(PortId id) { return ports_.at(id.index()); }
  [[nodiscard]] const Port& port(PortId id) const {
    return ports_.at(id.index());
  }
  [[nodiscard]] std::size_t numPorts() const { return ports_.size(); }
  [[nodiscard]] const std::vector<Port>& ports() const { return ports_; }

  // --- iteration ------------------------------------------------------

  /// Ids of all live cells, in creation order.
  [[nodiscard]] std::vector<CellId> cellIds() const;
  /// Ids of all live nets, in creation order.
  [[nodiscard]] std::vector<NetId> netIds() const;

  template <typename F>
  void forEachCell(F&& f) const {
    for (std::uint32_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].valid) f(CellId{i});
    }
  }
  template <typename F>
  void forEachNet(F&& f) const {
    for (std::uint32_t i = 0; i < nets_.size(); ++i) {
      if (nets_[i].valid) f(NetId{i});
    }
  }

  // --- snapshot support ----------------------------------------------
  //
  // A snapshot must reproduce a module *slot-exactly*: NetId/CellId are
  // positional, so state computed on one copy (region membership, enable
  // nets, ...) stays valid on the other only if tombstoned slots are
  // preserved too.

  /// Full net slot array, tombstones included (read-only).
  [[nodiscard]] const std::vector<Net>& rawNets() const { return nets_; }

  /// Makes this module a slot-exact copy of `src`: cells, nets, ports, the
  /// pin pool, the by-name indices and the constant nets.  The sink pool
  /// is laid out densely (each segment's capacity is its count), so the
  /// copy drops the old slots of segments that grew in `src`.  Both
  /// modules must resolve names through the same NameTable.
  void copyContentFrom(const Module& src);

  // --- validation -----------------------------------------------------

  /// Structural consistency check: every pin's net lists the pin back as
  /// driver/sink, no double drivers, tombstoned objects unreferenced.
  /// Returns human-readable problem descriptions (empty = consistent).
  [[nodiscard]] std::vector<std::string> checkInvariants() const;

 private:
  [[noreturn]] static void removedAccess(const char* what);
  void attachTerm(NetId net, TermRef term, PortDir dir);
  void detachTerm(NetId net, TermRef term, PortDir dir);
  /// Appends `term` to the net's sink segment, moving a full segment to the
  /// end of the pool with doubled capacity.
  void pushSink(SinkSegment& seg, TermRef term);
  [[nodiscard]] PinConn& pinAt(CellId cell, std::size_t pin_index);
  [[nodiscard]] NameTable& names();
  [[nodiscard]] const NameTable& names() const;

  Design* design_;
  NameId name_;
  std::vector<Net> nets_;
  std::vector<Cell> cells_;
  std::vector<Port> ports_;
  std::vector<PinConn> pin_pool_;   // every cell's pins, see Cell
  std::vector<TermRef> sink_pool_;  // every net's sinks, see SinkSegment
  NameIndex net_by_name_;
  NameIndex cell_by_name_;
  NameIndex port_by_name_;
  std::size_t live_nets_ = 0;
  std::size_t live_cells_ = 0;
  NetId const_net_[2];  // lazily created constant 0 / 1 nets

  friend class Design;  // re-points design_ when a Design is moved
};

/// A design: shared name table + a set of modules, one of which is top.
class Design {
 public:
  Design() = default;
  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;
  // Moves must re-point every module's owner back-pointer: modules live at
  // stable deque addresses, so only design_ goes stale on a move.
  Design(Design&& other) noexcept
      : names_(std::move(other.names_)),
        shared_names_(other.shared_names_),
        modules_(std::move(other.modules_)),
        module_by_name_(std::move(other.module_by_name_)),
        top_(other.top_) {
    for (auto& m : modules_) m.design_ = this;
    other.top_ = nullptr;
  }
  Design& operator=(Design&& other) noexcept {
    if (this == &other) return *this;
    names_ = std::move(other.names_);
    shared_names_ = other.shared_names_;
    modules_ = std::move(other.modules_);
    module_by_name_ = std::move(other.module_by_name_);
    top_ = other.top_;
    for (auto& m : modules_) m.design_ = this;
    other.top_ = nullptr;
    return *this;
  }

  [[nodiscard]] NameTable& names() {
    return shared_names_ != nullptr ? *shared_names_ : names_;
  }
  [[nodiscard]] const NameTable& names() const {
    return shared_names_ != nullptr ? *shared_names_ : names_;
  }

  /// Makes this design resolve names through `other`'s table instead of
  /// its own.  NameTables are append-only, so ids stay valid in both
  /// designs however either one grows; the caller guarantees `other`
  /// outlives this design.  Only allowed while this design is empty (no
  /// modules, nothing interned) — used by snapshotModule() so a snapshot
  /// can adopt raw slot arrays without re-interning every name.
  void shareNames(Design& other) {
    if (numModules() != 0 || names_.size() != 0) {
      throw NetlistError("shareNames on a non-empty design");
    }
    shared_names_ = &other.names();
  }

  /// Creates a module.  Throws NetlistError on duplicate name.
  Module& addModule(std::string_view name);
  /// Finds a module by name; nullptr if absent.
  [[nodiscard]] Module* findModule(std::string_view name);
  [[nodiscard]] const Module* findModule(std::string_view name) const;
  [[nodiscard]] const Module* findModule(NameId name) const;

  /// Declares which module is the top of the design.
  void setTop(std::string_view name);
  [[nodiscard]] Module& top();
  [[nodiscard]] const Module& top() const;
  [[nodiscard]] bool hasTop() const { return top_ != nullptr; }

  [[nodiscard]] std::size_t numModules() const { return modules_.size(); }
  template <typename F>
  void forEachModule(F&& f) {
    for (auto& m : modules_) f(m);
  }
  template <typename F>
  void forEachModule(F&& f) const {
    for (const auto& m : modules_) f(m);
  }

 private:
  NameTable names_;
  NameTable* shared_names_ = nullptr;  // see shareNames()
  std::deque<Module> modules_;  // deque: stable addresses
  NameIndex module_by_name_;    // module name -> index into modules_
  Module* top_ = nullptr;
};

}  // namespace desync::netlist
