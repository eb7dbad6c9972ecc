// Event-driven gate-level simulator (thesis §4.8).
//
// Simulates a flat gate-level netlist with three-valued logic and inertial
// per-instance rise/fall delays derived from the Liberty linear delay model
// (intrinsic + resistance * load).  Sequential cells (flip-flops, latches,
// integrated clock gates, scan cells, async set/clear) are interpreted from
// their gatefile classification, so both the synchronous circuit and its
// desynchronized counterpart — including the self-timed controller network,
// C-elements and delay elements, which are plain combinational feedback
// structures — run in the same engine.
//
// The simulator records, per sequential element, the sequence of values it
// stores (flip-flop: at every active clock edge; latch: at every closing
// enable edge).  Flow-equivalence (thesis §2.1) is checked by comparing
// these sequences between the two circuit versions.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "liberty/bound.h"
#include "liberty/gatefile.h"
#include "netlist/netlist.h"
#include "sim/value.h"

namespace desync::sim {

class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SimOptions {
  /// Global delay multiplier (PVT corner; see variability::Corner).
  double delay_scale = 1.0;
  /// Optional per-instance multiplier (intra-die variation), keyed by cell
  /// name.  Return 1.0 for nominal.
  std::function<double(std::string_view cell_name)> cell_delay_scale;
  /// Record stored-value sequences of sequential elements.
  bool record_captures = true;
  /// Count 0<->1 toggles per net (for power estimation).
  bool count_toggles = true;
};

/// Stored-value log of one sequential element.
struct CaptureLog {
  std::string element;            ///< cell name
  std::vector<Val> values;        ///< one entry per store
  std::vector<Time> times;        ///< matching timestamps
};

class Simulator {
 public:
  /// Builds the simulation model.  `module` must be flat; every cell type
  /// must exist in the gatefile's library.  Binds the module internally;
  /// prefer the BoundModule overload when several passes share one binding.
  Simulator(const netlist::Module& module, const liberty::Gatefile& gatefile,
            SimOptions options = {});

  /// Builds the simulation model from an existing binding (no per-cell
  /// string lookups).  `bound` must outlive the simulator and stay in sync
  /// with the module (no netlist mutation in between).
  explicit Simulator(const liberty::BoundModule& bound,
                     SimOptions options = {});

  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- stimulus ---------------------------------------------------------

  /// Drives an input port (or any undriven net) to `v` now.
  void setInput(std::string_view port, Val v);
  /// Schedules an input change at an absolute future time.
  void setInputAt(std::string_view port, Val v, Time at);

  /// Forces a net to a constant value, overriding its driver (stuck-at
  /// fault injection).  The force stays until releaseNet().
  void forceNet(std::string_view net, Val v);
  void releaseNet(std::string_view net);

  // --- execution --------------------------------------------------------

  /// Processes events up to and including `until`; time advances to it.
  void run(Time until);
  /// Runs until no events remain or `max_time` is reached.  Returns the
  /// time of the last processed event.
  Time runUntilStable(Time max_time);
  /// True when no pending events remain.
  [[nodiscard]] bool stable() const;

  [[nodiscard]] Time now() const { return now_; }

  // --- observation ------------------------------------------------------

  [[nodiscard]] Val value(std::string_view net_or_port) const;
  [[nodiscard]] Val netValue(netlist::NetId id) const;

  /// Capture logs of all sequential elements (by model order).
  [[nodiscard]] const std::vector<CaptureLog>& captures() const {
    return captures_;
  }
  /// Capture log of one element by cell name; nullptr if absent.
  [[nodiscard]] const CaptureLog* captureOf(std::string_view cell) const;

  /// 0<->1 toggle count per net id value.
  [[nodiscard]] const std::vector<std::uint64_t>& toggles() const {
    return toggles_;
  }
  [[nodiscard]] std::uint64_t totalToggles() const;

  /// Total events processed (progress / performance metric).
  [[nodiscard]] std::uint64_t eventsProcessed() const { return events_; }

  /// Looks up the net driving/driven by a port.
  [[nodiscard]] netlist::NetId portNet(std::string_view port) const;

  /// Registers a callback fired on every committed change of `net`.
  using WatchFn = std::function<void(Time, Val)>;
  void watchNet(std::string_view net_or_port, WatchFn fn);

  /// Netlist the simulator was built from.
  [[nodiscard]] const netlist::Module& module() const { return *module_; }

  /// Library binding the model was built from (owned or external).
  [[nodiscard]] const liberty::BoundModule& bound() const { return *bound_; }

  /// Capacitive load seen by the driver of each net (pF), as used for the
  /// delay model; exposed for the power model.
  [[nodiscard]] const std::vector<double>& netLoads() const {
    return net_load_;
  }

 private:
  struct Impl;
  void build();
  void applyEvent(std::uint32_t net, Val v);
  void evalComb(std::uint32_t gate_idx);
  void evalSeq(std::uint32_t seq_idx, std::uint32_t changed_net, Val old_val);
  void scheduleNet(std::uint32_t net, Val v, Time delay);

  const netlist::Module* module_;
  std::unique_ptr<liberty::BoundModule> owned_bound_;  // string-ctor only
  const liberty::BoundModule* bound_;
  SimOptions options_;
  Time now_ = 0;
  std::uint64_t events_ = 0;

  // Model arrays (filled by the constructor; see simulator.cpp).
  struct CombGate;
  struct SeqElem;
  struct Fanout;
  std::vector<CombGate> combs_;
  std::vector<SeqElem> seqs_;
  std::vector<Val> net_val_;
  std::vector<std::vector<Fanout>> fanout_;
  std::vector<double> net_load_;
  std::vector<bool> forced_;
  std::vector<std::uint64_t> toggles_;
  std::vector<CaptureLog> captures_;
  std::unordered_map<std::uint32_t, std::vector<WatchFn>> watches_;

  // Event queue with lazy cancellation (one pending change per net).
  struct Event;
  std::vector<Event> heap_;
  std::vector<std::uint32_t> pending_serial_;
  std::vector<Val> pending_val_;
  std::vector<Time> pending_time_;

  // Externally scheduled input changes live in their own queue: they are
  // testbench stimuli, not inertial gate outputs, so many may be pending on
  // the same net.
  std::multimap<Time, std::pair<std::uint32_t, Val>> input_queue_;

  /// Pops stale heap entries; returns the earliest pending event time or
  /// a negative value when none.
  [[nodiscard]] Time nextGateEventTime();
  /// Processes exactly one event (the earliest of gate/input queues).
  void processOne();

  std::unordered_map<std::string, std::uint32_t> net_index_;
  /// captureOf's index: cell name -> captures_ position.
  std::unordered_map<std::string, std::uint32_t> capture_index_;
};

}  // namespace desync::sim
