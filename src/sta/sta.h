// Static Timing Analysis engine.
//
// Plays the PrimeTime role in the flow: levelizes the combinational timing
// graph of a flat netlist, propagates rise/fall arrival times with the
// Liberty linear delay model and reports critical paths.  Two features the
// desynchronization flow depends on (thesis §3.2.5, §4.6):
//
//  * per-endpoint combinational delays — drdesync sizes each region's
//    matched delay element from the worst path into the region's
//    sequential elements;
//  * timing loop breaking — the controller network is cyclic; cycles are
//    cut either by user-specified disabled arcs (SDC set_disable_timing,
//    the hand-placed cuts of Fig 4.5) or automatically at back edges, and
//    the list of cuts is reported so the flow can check they are the
//    intended ones.
//
// Arc unateness is derived from the cell truth table, so asymmetric delay
// elements characterize correctly (rise propagates through the whole AND
// chain, fall through one stage).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "liberty/bound.h"
#include "liberty/gatefile.h"
#include "netlist/netlist.h"

namespace desync::sta {

class StaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A disabled timing arc: all arcs through `cell` (empty pin) or only those
/// from input pin `from_pin`.
struct DisabledArc {
  std::string cell;
  std::string from_pin;  ///< empty: every arc through the cell
};

struct StaOptions {
  double delay_scale = 1.0;          ///< PVT corner multiplier
  std::vector<DisabledArc> disabled; ///< user cuts (SDC set_disable_timing)
  bool auto_break_loops = true;      ///< cut remaining cycles at back edges
  /// Per-instance delay multiplier (intra-die variation for SSTA-style
  /// Monte-Carlo analysis), keyed by cell name; unset = 1.0 everywhere.
  std::function<double(std::string_view)> cell_scale;
};

/// One step of a reported path.
struct PathStep {
  std::string net;
  std::string through_cell;  ///< driver cell ("" for startpoints)
  double arrival_ns = 0.0;
  bool rising = true;
};

/// An automatically cut arc (for loop-break reporting).
struct BrokenArc {
  std::string cell;
  std::string from_net;
  std::string to_net;
};

class Sta {
 public:
  /// Builds the timing graph.  `module` must be flat.  Binds the module
  /// internally; prefer the BoundModule overload when several passes share
  /// one binding.
  Sta(const netlist::Module& module, const liberty::Gatefile& gatefile,
      StaOptions options = {});

  /// Builds the timing graph from an existing binding (no per-cell string
  /// lookups).  `bound` must outlive the Sta and stay in sync with the
  /// module (no netlist mutation in between).
  explicit Sta(const liberty::BoundModule& bound, StaOptions options = {});
  ~Sta();  // out of line: members hold vectors of private incomplete types
  Sta(const Sta&) = delete;
  Sta& operator=(const Sta&) = delete;

  /// Worst combinational arrival over every timing endpoint (sequential
  /// data/control inputs and output ports), launches at t=0 from sequential
  /// outputs and input ports.
  [[nodiscard]] double criticalPathNs() const;

  /// Critical path trace (endpoint backwards to startpoint, reversed).
  [[nodiscard]] std::vector<PathStep> criticalPath() const;

  /// Worst combinational arrival at any sequential data input of `cell`
  /// (a flip-flop or latch); nullopt when the cell has no timed data input.
  [[nodiscard]] std::optional<double> combDelayToSeq(
      std::string_view cell) const;

  /// Worst arrival at a specific net (rise/fall max); nullopt if the net is
  /// unreached.
  [[nodiscard]] std::optional<double> arrivalNs(std::string_view net) const;

  /// Pin-to-pin query used for delay-element characterization: worst path
  /// delay from input port `from` to output port `to`, for the given output
  /// edge.  nullopt when no path exists.
  [[nodiscard]] std::optional<double> portToPortNs(std::string_view from,
                                                   std::string_view to,
                                                   bool rising_out) const;

  /// Worst path delay between two arbitrary nets (single-source
  /// propagation); used to measure the in-place delay elements of a
  /// desynchronized netlist for SSTA margin analysis.
  [[nodiscard]] std::optional<double> netToNetNs(std::string_view from,
                                                 std::string_view to,
                                                 bool rising_out) const;

  /// Arcs cut automatically to make the graph acyclic.
  [[nodiscard]] const std::vector<BrokenArc>& brokenArcs() const {
    return broken_;
  }

  /// Setup slack for a clock period: min over sequential endpoints of
  /// (period - clk_to_q - comb_arrival - setup).  Input-port launches are
  /// treated as clk_to_q = 0.
  [[nodiscard]] double worstSetupSlackNs(double period_ns) const;

  /// Smallest period with non-negative setup slack.
  [[nodiscard]] double minPeriodNs() const;

  /// Worst combinational arrival into the master latches (cells whose name
  /// ends in `seq_suffix`) of each listed region, index-aligned with
  /// `region_cells`.  Entries stay 0 for regions without timed paths.  The
  /// queries are independent per region and run concurrently on the
  /// parallel layer (core/parallel.h); the result is identical at any
  /// --jobs setting.
  [[nodiscard]] std::vector<double> regionWorstDelays(
      const std::vector<std::vector<netlist::CellId>>& region_cells,
      std::string_view seq_suffix) const;

 private:
  struct Arc;
  struct Endpoint;
  void buildGraph();
  void breakLoops();
  void propagate();

  const netlist::Module* module_;
  std::unique_ptr<liberty::BoundModule> owned_bound_;  // string-ctor only
  const liberty::BoundModule* bound_;
  StaOptions options_;

  // Arrival times per net slot (rise/fall), -inf when unreachable.
  std::vector<double> arr_rise_, arr_fall_;
  std::vector<std::int32_t> pred_rise_, pred_fall_;  // arc index or -1
  std::vector<Arc> arcs_;
  std::vector<Endpoint> endpoints_;
  std::vector<BrokenArc> broken_;
  double worst_ = 0.0;
  std::uint32_t worst_net_ = 0;
  bool worst_rise_ = true;
};

/// Multi-corner analysis: builds one Sta per options entry (e.g. the
/// best/typical/worst PVT corners, or one Monte-Carlo die each) over the
/// shared read-only binding.  The constructions are independent and run
/// concurrently on the parallel layer; the returned analyses are
/// index-aligned with `options`, so any report merged in index order is
/// byte-identical to a serial (--jobs 1) run.  `bound` must outlive the
/// returned analyses.
[[nodiscard]] std::vector<std::unique_ptr<Sta>> analyzeCorners(
    const liberty::BoundModule& bound, std::vector<StaOptions> options);

}  // namespace desync::sta
