// Control network insertion (thesis §2.4, §3.2.5-§3.2.6, Fig 2.11).
//
// Every region gets a master/slave pair of latch controllers driving its
// latch enables.  The data-dependency graph dictates the handshake wiring:
// each predecessor's slave request joins (through a C-Muller element when
// there are several) into one matched delay element sized to the region's
// combinational critical path, and acknowledges fan back through C-elements
// likewise.  Slave controllers reset "full" — their flip-flops' reset values
// are the initial data tokens — so all requests start asserted and the
// network self-starts.
#pragma once

#include "async/controllers.h"
#include "core/ff_substitution.h"
#include "core/regions.h"
#include "sta/sdc.h"

namespace desync::core {

struct ControlNetworkOptions {
  async::ControllerKind controller = async::ControllerKind::kSemiDecoupled;
  /// Matched-delay safety margin over the region's critical path
  /// (absorbs intra-die variation; thesis §2.5).
  double margin = 1.15;
  /// 0 = fixed delay elements; 2/4/8 = calibration mux with that many taps
  /// (Fig 5.3's "delay selection"); select pins become top-level ports
  /// dsel0.. shared by every delay element, as in the paper.  The nominal
  /// tap, where the muxed delay matches margin * critical path, is the
  /// second-highest (headroom above, room to shorten).
  int mux_taps = 0;
  /// Name of an existing reset input port; empty: a new "rst" port
  /// (active-high) is created.
  std::string reset_port;
  bool reset_active_low = false;
};

struct RegionControl {
  int group = -1;
  std::string master_cell;  ///< instance name of the master controller
  std::string slave_cell;
  int delay_levels = 0;          ///< chain stages of this region's element
  double required_delay_ns = 0;  ///< region critical path (with clk-q+setup)
  double matched_delay_ns = 0;   ///< characterized element delay (nominal tap)
};

struct ControlNetworkReport {
  std::vector<RegionControl> regions;
  /// Timing-loop cuts through the controllers (thesis §4.6.1, Fig 4.5),
  /// ready to be emitted as SDC set_disable_timing.
  std::vector<sta::DisabledArc> loop_cuts;
  /// Controller cells to mark size_only (§4.6.2).
  std::vector<std::string> size_only_cells;
  double per_level_delay_ns = 0;  ///< characterized AND-stage rise delay
};

/// STA products the control network consumes, computed by the flow's
/// region_timing pass.  Split out of insertControlNetwork so the (slow)
/// timing analysis can be cached independently of the (cheap) network
/// construction: changing a post-substitution knob — margin, mux taps,
/// controller kind, reset wiring — re-runs construction from the cached
/// timing instead of re-running STA.
struct RegionTiming {
  double per_level_delay_ns = 0;  ///< characterized AND-stage rise delay
  /// Per group: worst combinational delay into the region's master latches
  /// (with clk-to-q and setup), i.e. the path the matched delay must cover.
  std::vector<double> required_delay_ns;
};

/// Runs the timing prerequisites of control-network insertion: re-buffers
/// the datapath (the cleaning pass stripped the synthesis buffers, and the
/// delay elements must be sized against the timing the backend netlist
/// will actually have), characterizes the delay-element stage delay, and
/// measures each region's critical path with the STA engine.
RegionTiming computeRegionTiming(netlist::Module& module,
                                 const liberty::Gatefile& gatefile,
                                 const Regions& regions);

/// Inserts controllers, C-elements and delay elements into `module` (which
/// already went through grouping, flip-flop substitution and
/// computeRegionTiming) and flattens them.  Delay elements are sized from
/// `timing`; this function performs no STA of its own.
ControlNetworkReport insertControlNetwork(
    netlist::Design& design, netlist::Module& module,
    const liberty::Gatefile& gatefile, const Regions& regions,
    const DependencyGraph& ddg, const SubstitutionResult& subst,
    const RegionTiming& timing, const ControlNetworkOptions& options = {});

}  // namespace desync::core
