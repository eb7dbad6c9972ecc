// drdesync: the desynchronization tool (thesis chapters 3-4).
//
// Converts a post-synthesis synchronous gate-level netlist into its
// flow-equivalent desynchronized counterpart, in place:
//
//   1. design import / logic cleaning           (§3.2.1, §3.2.2)
//   2. automatic region creation                (§3.2.2, Figs 3.3-3.6)
//   3. flip-flop substitution                   (§3.2.3, Fig 3.1)
//   4. data-dependency graph                    (§3.2.4, Fig 2.6)
//   5. delay element creation (STA-sized)       (§3.2.5)
//   6. control network insertion                (§3.2.6, Fig 2.11)
//   7. backend constraint generation (SDC)      (§4.4-§4.6, Figs 4.2, 4.5)
//
// The resulting module has no functional clock; the original clock input
// port remains but is disconnected, and a reset drives the controller
// network, which self-starts from the slave latches' reset data tokens.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/control_network.h"
#include "core/ff_substitution.h"
#include "core/flow_report.h"
#include "core/regions.h"
#include "sim/flow_equivalence.h"
#include "sim/stimulus.h"
#include "sim/symfe/symfe.h"
#include "sta/sdc.h"

namespace desync::core {

/// Which flow-equivalence route(s) the post-flow self-check runs
/// (`--fe-mode`): the sampling vector route (sim/flow_equivalence), the
/// exhaustive per-register symbolic route (sim/symfe), or both as
/// complementary checks (the prover is timing-blind; the vector route
/// samples but sees real delays).
enum class FeMode : std::uint8_t { kSim, kProve, kBoth };

/// Parses "sim" / "prove" / "both"; throws std::invalid_argument otherwise.
FeMode parseFeMode(const std::string& text);
const char* feModeName(FeMode mode);

/// Parses a manual region spec (`drdesync --group`, the daemon's `group`):
/// "p1,p2;p3" -> {{p1,p2},{p3}}.  Empty prefixes and empty groups are
/// dropped, so "" yields no groups (automatic grouping).
std::vector<std::vector<std::string>> parseManualGroups(
    std::string_view spec);

/// Post-flow flow-equivalence self-check knobs (`--fe-check`, `--fe-mode`):
/// after the seven passes, the converted module is simulated against a
/// pristine snapshot of the synchronous input over independent stimulus
/// batches (sim/stimulus.h's protocol: the desynchronized side runs until
/// it has its captures) and the stored-value sequences are compared
/// (thesis §2.1).
struct FeCheckOptions {
  /// Number of stimulus batches; 0 disables the check entirely (no
  /// snapshot is taken, zero overhead).
  std::size_t batches = 0;
  /// Batch-0 synchronous cycle count (batch b adds 2*b cycles).
  int base_cycles = 10;
  /// Route selection: kSim runs the vector check gated on `batches`; kProve
  /// runs the symbolic prover (fe_prove pass) regardless of `batches`;
  /// kBoth runs whichever of the two are enabled plus the prover.
  FeMode mode = FeMode::kSim;
  /// Per-register conflict budget for the prover.
  std::uint64_t prove_max_conflicts = 200000;
};

/// FlowDB persistence knobs (`--cache-dir`).
struct FlowDbOptions {
  /// Cache directory holding each design's proof table (docs/eco.md): a
  /// prover run reuses the proof of every register whose miter is
  /// unchanged since the previous run.  Output stays byte-identical to an
  /// uncached run.  Inert without the prover (`--fe-mode sim`); empty
  /// disables FlowDB entirely (zero overhead).
  std::string cache_dir;
  /// Ignored: a non-empty cache_dir always runs incrementally.  Kept only
  /// for source compatibility with callers that still set it.
  bool eco = false;
};

struct DesyncOptions {
  GroupingOptions grouping;
  ControlNetworkOptions control;
  /// Clock input port name; its loads are expected to disappear with the
  /// flip-flops.  Only single-clock designs are supported (thesis §4.1).
  std::string clock_port = "clk";
  /// Manual region specification (thesis §3.2.2): when non-empty, regions
  /// come from these sequential-cell name-prefix groups instead of the
  /// automatic algorithm (group i+1 = prefixes[i]).
  std::vector<std::vector<std::string>> manual_seq_groups;
  /// Proof reuse through a cache directory.
  FlowDbOptions flowdb;
  /// Post-flow flow-equivalence self-check (disabled by default).
  FeCheckOptions fe;
};

struct DesyncResult {
  Regions regions;
  DependencyGraph ddg;
  SubstitutionResult substitution;
  /// STA products of the region_timing pass (delay-element stage delay,
  /// per-region critical paths); margin-free.
  RegionTiming timing;
  ControlNetworkReport control;
  /// Backend constraints: ClkM/ClkS latch-enable clocks (Fig 4.2),
  /// controller loop cuts (Fig 4.5) and size_only markers.
  sta::SdcFile sdc;
  /// Minimum clock period of the original synchronous circuit (worst path
  /// + setup), used as the reference period for the generated clocks and
  /// for the synchronous-version comparisons.
  double sync_min_period_ns = 0.0;
  /// Synchronous reference period at each PVT corner (best/typical/worst,
  /// in that order), from the multi-corner reference_sta pass.  The three
  /// analyses run concurrently on the parallel layer (core/parallel.h).
  struct CornerPeriod {
    std::string corner;         ///< variability corner name
    double delay_scale = 1.0;   ///< the corner's delay multiplier
    double min_period_ns = 0.0;
  };
  std::vector<CornerPeriod> corner_periods;
  /// Post-flow flow-equivalence self-check outcome; `ran` is false when
  /// FeCheckOptions::batches was 0.
  struct FeCheck {
    bool ran = false;
    sim::FlowEqBatchReport report;
  };
  FeCheck fe;
  /// Symbolic per-register proof outcome (fe_prove pass); `ran` is false
  /// unless FeCheckOptions::mode included the prover.
  struct SymfeCheck {
    bool ran = false;
    sim::symfe::SymfeReport report;
  };
  SymfeCheck symfe;
  /// Per-pass wall times and work counters (`drdesync --report`).
  FlowReport flow;
};

/// Raised when a flow pass fails: carries the failing pass's name and the
/// FlowReport as of the failure (completed passes plus the failing one),
/// so `drdesync --report` can still emit a partial report with an "error"
/// field instead of losing all pass statistics.
class FlowError : public std::runtime_error {
 public:
  FlowError(std::string pass, FlowReport flow, const std::string& message)
      : std::runtime_error(message),
        pass_(std::move(pass)),
        flow_(std::move(flow)) {}

  /// Name of the pass that failed.
  [[nodiscard]] const std::string& pass() const { return pass_; }
  /// Pass statistics collected up to (and including) the failing pass.
  [[nodiscard]] const FlowReport& flow() const { return flow_; }

 private:
  std::string pass_;
  FlowReport flow_;
};

/// Desynchronizes `module` in place.  `design` receives the helper modules
/// (controllers, C-elements, delay elements) before they are flattened in.
/// A pass failure, fe_check and fe_prove included, is reported as
/// FlowError.  With options.flowdb.cache_dir set and the prover on,
/// fe_prove reuses the stored proof of every unchanged miter (core/eco.h);
/// restored and computed proofs produce byte-identical results.
DesyncResult desynchronize(netlist::Design& design, netlist::Module& module,
                           const liberty::Gatefile& gatefile,
                           const DesyncOptions& options = {});

}  // namespace desync::core
