#include "fuzz/shrink.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "netlist/netlist.h"
#include "netlist/verilog.h"

namespace desync::fuzz {

namespace {

namespace nl = netlist;

/// Deletes cells whose outputs nobody reads, then orphaned nets, to a
/// fixpoint.  Ports count as readers (they are net sinks).
void sweepDead(nl::Module& m) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (nl::CellId id : m.cellIds()) {
      bool read = false;
      std::vector<nl::NetId> outs;
      for (const nl::PinConn& p : m.pins(id)) {
        if (p.dir != nl::PortDir::kOutput || !p.net.valid()) continue;
        outs.push_back(p.net);
        if (!m.sinks(p.net).empty()) read = true;
      }
      if (read) continue;
      m.removeCell(id);
      for (nl::NetId n : outs) {
        if (m.sinks(n).empty()) m.removeNet(n);
      }
      changed = true;
    }
  }
  // Constant-net dedup: repeated rounds of parse -> tie-to-zero -> write
  // would otherwise pile up one fresh const net per round.
  for (const nl::TermKind kind :
       {nl::TermKind::kConst0, nl::TermKind::kConst1}) {
    std::vector<nl::NetId> consts;
    m.forEachNet([&](nl::NetId id) {
      if (m.net(id).driver.kind == kind) consts.push_back(id);
    });
    for (std::size_t i = 1; i < consts.size(); ++i) {
      m.mergeNetInto(consts[i], consts[0]);
    }
  }
  // Orphan nets: no reader, and no driver or only a constant one.
  std::vector<nl::NetId> orphans;
  m.forEachNet([&](nl::NetId id) {
    const nl::Net& n = m.net(id);
    if (m.sinks(id).empty() &&
        (n.driver.kind == nl::TermKind::kNone || n.driver.isConst())) {
      orphans.push_back(id);
    }
  });
  for (nl::NetId n : orphans) m.removeNet(n);
}

/// Removes cell `id`, re-pointing every net it drove at constant zero.
void tieCellLow(nl::Module& m, nl::CellId id) {
  std::vector<nl::NetId> outs;
  for (const nl::PinConn& p : m.pins(id)) {
    if (p.dir == nl::PortDir::kOutput && p.net.valid()) outs.push_back(p.net);
  }
  m.removeCell(id);
  for (nl::NetId n : outs) m.mergeNetInto(n, m.constNet(false));
}

/// Removes cell `id`, short-circuiting its first output net to its first
/// connected input net.  Returns false when the cell has no such pair.
bool bypassCell(nl::Module& m, nl::CellId id) {
  nl::NetId in;
  nl::NetId out;
  for (const nl::PinConn& p : m.pins(id)) {
    if (!p.net.valid()) continue;
    if (p.dir == nl::PortDir::kInput && !in.valid()) in = p.net;
    if (p.dir == nl::PortDir::kOutput && !out.valid()) out = p.net;
  }
  if (!in.valid() || !out.valid() || in == out) return false;
  std::vector<nl::NetId> extra;
  for (const nl::PinConn& p : m.pins(id)) {
    if (p.dir == nl::PortDir::kOutput && p.net.valid() && p.net != out) {
      extra.push_back(p.net);
    }
  }
  m.removeCell(id);
  m.mergeNetInto(out, in);
  for (nl::NetId n : extra) m.mergeNetInto(n, m.constNet(false));
  return true;
}

/// Parse -> mutate -> sweep -> write.  Returns "" when the mutation failed
/// or produced no change, so callers just skip the candidate.
std::string applyMutation(const std::string& text,
                          const liberty::Gatefile& gatefile,
                          const std::function<bool(nl::Module&)>& mutate) {
  try {
    nl::Design d;
    nl::readVerilog(d, text, gatefile);
    nl::Module& m = d.top();
    if (!mutate(m)) return {};
    sweepDead(m);
    std::string out = nl::writeVerilog(m);
    if (out == text) return {};
    return out;
  } catch (const std::exception&) {
    return {};
  }
}

std::size_t countCells(const std::string& text,
                       const liberty::Gatefile& gatefile) {
  nl::Design d;
  nl::readVerilog(d, text, gatefile);
  return d.top().numCells();
}

}  // namespace

ShrinkResult shrink(const std::string& verilog,
                    const liberty::Gatefile& gatefile,
                    const ShrinkOptions& options) {
  ShrinkResult r;
  r.verilog = verilog;

  OracleOptions oopt = options.oracle;
  OracleVerdict first = runOracle(verilog, gatefile, oopt);
  r.evals = 1;
  if (first.ok) return r;  // nothing to shrink
  r.failing = true;
  r.check = first.check;
  r.detail = first.detail;
  r.initial_cells = first.cells;
  // The FlowDB and ECO checks are the slowest (extra full flows each);
  // skip them while shrinking unless one is the very failure being
  // preserved.  The ECO edit seed itself is never changed, so a preserved
  // "eco" failure keeps replaying the same scripted edit.
  if (first.check != "flowdb") oopt.check_flowdb = false;
  if (first.check != "eco") oopt.check_eco = false;

  // Accepts `candidate` when it fails the same check.
  auto keeps_failure = [&](const std::string& candidate) {
    if (candidate.empty() || r.evals >= options.max_evals) return false;
    ++r.evals;
    OracleVerdict v = runOracle(candidate, gatefile, oopt);
    if (v.ok || v.check != r.check) return false;
    r.verilog = candidate;
    r.detail = v.detail;
    return true;
  };

  bool progress = true;
  while (progress && r.evals < options.max_evals) {
    progress = false;

    // Phase 1: tie0 over cell chunks, ddmin-style (chunk halves to 1).
    std::size_t n = countCells(r.verilog, gatefile);
    for (std::size_t chunk = std::max<std::size_t>(n / 2, 1); chunk >= 1;
         chunk /= 2) {
      bool chunk_hit = true;
      while (chunk_hit && r.evals < options.max_evals) {
        chunk_hit = false;
        n = countCells(r.verilog, gatefile);
        if (n == 0) break;
        for (std::size_t start = 0; start < n; start += chunk) {
          std::string candidate =
              applyMutation(r.verilog, gatefile, [&](nl::Module& m) {
                std::vector<nl::CellId> ids = m.cellIds();
                const std::size_t end = std::min(start + chunk, ids.size());
                if (start >= ids.size()) return false;
                for (std::size_t i = start; i < end; ++i) {
                  tieCellLow(m, ids[i]);
                }
                return true;
              });
          if (keeps_failure(candidate)) {
            progress = true;
            chunk_hit = true;
            break;  // cell ids shifted; re-enumerate at this chunk size
          }
          if (r.evals >= options.max_evals) break;
        }
      }
      if (chunk == 1) break;
    }

    // Phase 2: bypass single cells (keeps the through-path alive where
    // tie0 would change the preserved check).
    std::size_t i = 0;
    while (r.evals < options.max_evals) {
      n = countCells(r.verilog, gatefile);
      if (i >= n) break;
      std::string candidate =
          applyMutation(r.verilog, gatefile, [&](nl::Module& m) {
            std::vector<nl::CellId> ids = m.cellIds();
            return i < ids.size() && bypassCell(m, ids[i]);
          });
      if (keeps_failure(candidate)) {
        progress = true;  // same index now names the next cell
      } else {
        ++i;
      }
    }
  }

  r.final_cells = countCells(r.verilog, gatefile);
  return r;
}

}  // namespace desync::fuzz
