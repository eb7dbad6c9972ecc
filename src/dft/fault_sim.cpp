#include "dft/fault_sim.h"

#include "liberty/bound.h"
#include "sim/bitsim/bitsim.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/hash.h"

namespace desync::dft {

using sim::Val;

namespace {

/// Runs the full scan test on one machine; returns the scan-out stream.
std::vector<Val> scanTest(sim::Simulator& s, const FaultSimOptions& opt,
                          std::size_t chain_len,
                          const std::vector<std::vector<bool>>& patterns) {
  const sim::Time half = sim::nsToPs(opt.period_ns / 2);
  auto pulse = [&]() {
    s.setInput(opt.clock_port, Val::k1);
    s.run(s.now() + half);
    s.setInput(opt.clock_port, Val::k0);
    s.run(s.now() + half);
  };

  std::vector<Val> stream;
  s.setInput(opt.clock_port, Val::k0);
  s.setInput(opt.reset_port,
             opt.reset_active_low ? Val::k0 : Val::k1);
  s.setInput(opt.scan.scan_en_port, Val::k0);
  s.setInput(opt.scan.scan_in_port, Val::k0);
  s.run(s.now() + 2 * half);
  s.setInput(opt.reset_port,
             opt.reset_active_low ? Val::k1 : Val::k0);
  s.run(s.now() + half);

  for (const std::vector<bool>& pattern : patterns) {
    // Shift in.
    s.setInput(opt.scan.scan_en_port, Val::k1);
    for (std::size_t i = 0; i < chain_len; ++i) {
      s.setInput(opt.scan.scan_in_port, sim::fromBool(pattern[i]));
      pulse();
    }
    // One functional capture cycle.
    s.setInput(opt.scan.scan_en_port, Val::k0);
    pulse();
    // Shift out (zeros in).
    s.setInput(opt.scan.scan_en_port, Val::k1);
    s.setInput(opt.scan.scan_in_port, Val::k0);
    for (std::size_t i = 0; i < chain_len; ++i) {
      stream.push_back(s.value(opt.scan.scan_out_port));
      pulse();
    }
  }
  return stream;
}

/// Same scan protocol on the bit-parallel engine.  `lane_faults[l]` is the
/// fault forced in lane l (nullptr = fault-free machine); returns the
/// scan-out sample words, one per stream position, for all lanes at once.
std::vector<sim::LaneWord> scanTestLanes(
    const sim::bitsim::BitPlan& plan, const FaultSimOptions& opt,
    std::size_t chain_len, const std::vector<std::vector<bool>>& patterns,
    const std::vector<const Fault*>& lane_faults) {
  sim::bitsim::BitSim s(plan, /*record_captures=*/false);
  for (std::size_t l = 0; l < lane_faults.size(); ++l) {
    if (lane_faults[l] == nullptr) continue;
    s.forceNet(lane_faults[l]->net, static_cast<unsigned>(l),
               lane_faults[l]->stuck1 ? Val::k1 : Val::k0);
  }
  // Reset phase: the event protocol holds the clock low throughout, so it
  // amounts to two settle points (reset asserted, then released).
  s.set(opt.reset_port, opt.reset_active_low ? Val::k0 : Val::k1);
  s.set(opt.scan.scan_en_port, Val::k0);
  s.set(opt.scan.scan_in_port, Val::k0);
  s.settle();
  s.set(opt.reset_port, opt.reset_active_low ? Val::k1 : Val::k0);
  s.settle();

  std::vector<sim::LaneWord> stream;
  for (const std::vector<bool>& pattern : patterns) {
    s.set(opt.scan.scan_en_port, Val::k1);
    for (std::size_t i = 0; i < chain_len; ++i) {
      s.set(opt.scan.scan_in_port, sim::fromBool(pattern[i]));
      s.cycle();
    }
    s.set(opt.scan.scan_en_port, Val::k0);
    s.cycle();
    s.set(opt.scan.scan_en_port, Val::k1);
    s.set(opt.scan.scan_in_port, Val::k0);
    for (std::size_t i = 0; i < chain_len; ++i) {
      s.settle();  // the sample happens before the next edge
      stream.push_back(s.word(opt.scan.scan_out_port));
      s.cycle();
    }
  }
  return stream;
}

/// 64-way campaign: lane 0 carries the fault-free machine, lanes 1..63 one
/// fault each, so every pass resolves 63 faults.  Throws sim::SimError
/// (e.g. bitsim::BitSimError) when the design is outside the cycle model.
void runCampaignBitsim(const liberty::BoundModule& bound,
                       const FaultSimOptions& options,
                       std::size_t chain_len,
                       const std::vector<std::vector<bool>>& patterns,
                       std::vector<Fault>& faults) {
  sim::bitsim::PlanOptions po;
  po.clock_port = options.clock_port;
  const sim::bitsim::BitPlan plan = sim::bitsim::compilePlan(bound, po);
  constexpr std::size_t per_pass = sim::kLanes - 1;
  for (std::size_t f0 = 0; f0 < faults.size(); f0 += per_pass) {
    trace::Span span("bitsim_faults", "dft");
    const std::size_t cnt = std::min(per_pass, faults.size() - f0);
    std::vector<const Fault*> lane_faults(cnt + 1, nullptr);
    for (std::size_t j = 0; j < cnt; ++j) lane_faults[j + 1] = &faults[f0 + j];
    const std::vector<sim::LaneWord> stream =
        scanTestLanes(plan, options, chain_len, patterns, lane_faults);
    for (std::size_t j = 0; j < cnt; ++j) {
      Fault& f = faults[f0 + j];
      for (const sim::LaneWord& w : stream) {
        const Val golden = sim::laneGet(w, 0);
        const Val out = sim::laneGet(w, static_cast<unsigned>(j + 1));
        if (sim::isKnown(out) && sim::isKnown(golden) && out != golden) {
          f.detected = true;
          break;
        }
      }
    }
  }
}

}  // namespace

FaultSimResult runScanFaultSim(const netlist::Module& module,
                               const liberty::Gatefile& gatefile,
                               const ScanResult& scan,
                               const FaultSimOptions& options) {
  FaultSimResult result;

  // Pattern generation (deterministic).
  for (int p = 0; p < options.n_patterns; ++p) {
    std::vector<bool> pattern;
    for (std::size_t i = 0; i < scan.chain_length; ++i) {
      const std::uint64_t bit = static_cast<std::uint64_t>(p) << 32 | i;
      pattern.push_back((util::splitmix64(options.seed ^ bit) & 1u) != 0);
    }
    result.patterns.push_back(std::move(pattern));
  }

  // Fault list: stuck-at-0/1 per net (skip constants / scan control nets
  // where a fault would stop the test infrastructure rather than the
  // logic — real ATPG treats chain faults separately).
  std::vector<Fault> faults;
  module.forEachNet([&](netlist::NetId id) {
    const netlist::Net& n = module.net(id);
    if (n.driver.isConst() || module.sinks(id).empty()) return;
    std::string name(module.netName(id));
    if (name == options.scan.scan_en_port ||
        name == options.clock_port || name == options.reset_port) {
      return;
    }
    faults.push_back(Fault{name, false, false});
    faults.push_back(Fault{name, true, false});
  });
  if (options.max_faults > 0 && faults.size() > options.max_faults) {
    std::vector<Fault> sampled;
    const std::size_t step = faults.size() / options.max_faults + 1;
    for (std::size_t i = 0; i < faults.size(); i += step) {
      sampled.push_back(faults[i]);
    }
    faults = std::move(sampled);
  }

  bool simulated = false;
  if (options.engine == sim::SyncEngine::kBitsim) {
    try {
      const liberty::BoundModule bound(module, gatefile);
      runCampaignBitsim(bound, options, scan.chain_length, result.patterns,
                        faults);
      simulated = true;
    } catch (const sim::SimError&) {
      // Outside the cycle model: rerun the whole campaign on the event
      // engine so the detected flags stay engine-independent.
      for (Fault& f : faults) f.detected = false;
    }
  }
  if (!simulated) {
    // Golden machine.
    std::vector<Val> golden;
    {
      sim::SimOptions so;
      so.record_captures = false;
      so.count_toggles = false;
      sim::Simulator s(module, gatefile, so);
      golden = scanTest(s, options, scan.chain_length, result.patterns);
    }
    for (Fault& f : faults) {
      sim::SimOptions so;
      so.record_captures = false;
      so.count_toggles = false;
      sim::Simulator s(module, gatefile, so);
      s.forceNet(f.net, f.stuck1 ? Val::k1 : Val::k0);
      std::vector<Val> out =
          scanTest(s, options, scan.chain_length, result.patterns);
      for (std::size_t i = 0; i < out.size() && i < golden.size(); ++i) {
        if (sim::isKnown(out[i]) && sim::isKnown(golden[i]) &&
            out[i] != golden[i]) {
          f.detected = true;
          break;
        }
      }
    }
  }
  for (const Fault& f : faults) {
    if (f.detected) ++result.detected;
  }
  result.total = faults.size();
  result.faults = std::move(faults);
  return result;
}

}  // namespace desync::dft
