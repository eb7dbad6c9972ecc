// Stuck-at fault simulation over the scan chain (thesis §4.3: "After the
// scan chain insertion the test vectors are extracted.  These vectors are
// used after fabrication to detect any chip errors").
//
// Random patterns are shifted through the scan chain, a capture cycle is
// applied, and the captured state is shifted back out.  A fault is detected
// when its scan-out stream differs from the fault-free machine's.  Faults
// are single stuck-at-0/1 faults on nets (net-collapsed fault model).
#pragma once

#include <string>
#include <vector>

#include "dft/scan.h"
#include "liberty/gatefile.h"
#include "netlist/netlist.h"
#include "sim/stimulus.h"
#include "sim/value.h"

namespace desync::dft {

struct Fault {
  std::string net;
  bool stuck1 = false;
  bool detected = false;
};

struct FaultSimOptions {
  int n_patterns = 16;
  std::uint64_t seed = 1;
  std::string clock_port = "clk";
  std::string reset_port = "rst_n";
  bool reset_active_low = true;
  ScanOptions scan;
  double period_ns = 10.0;
  /// Cap on simulated faults (0 = all); faults beyond the cap are sampled
  /// deterministically.
  std::size_t max_faults = 0;
  /// Campaign engine: kBitsim simulates 63 faults plus the golden machine
  /// per pass (one fault forced per lane) and falls back to the event
  /// engine on designs outside the cycle model.  The detected flags are
  /// byte-identical between engines.
  sim::SyncEngine engine = sim::SyncEngine::kBitsim;
};

struct FaultSimResult {
  std::size_t total = 0;
  std::size_t detected = 0;
  [[nodiscard]] double coverage() const {
    return total == 0 ? 0.0 : static_cast<double>(detected) /
                                  static_cast<double>(total);
  }
  std::vector<Fault> faults;
  /// The applied scan patterns (the extracted "test vectors").
  std::vector<std::vector<bool>> patterns;
};

/// Runs scan-based stuck-at fault simulation on a scan-inserted module.
FaultSimResult runScanFaultSim(const netlist::Module& module,
                               const liberty::Gatefile& gatefile,
                               const ScanResult& scan,
                               const FaultSimOptions& options = {});

}  // namespace desync::dft
