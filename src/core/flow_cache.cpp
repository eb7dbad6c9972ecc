#include "core/flow_cache.h"

#include <chrono>
#include <utility>

#include "core/eco.h"
#include "core/version.h"
#include "flowdb/io.h"
#include "flowdb/snapshot.h"
#include "liberty/library.h"
#include "trace/trace.h"

namespace desync::core {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- DesyncResult codec ---------------------------------------------------
// The blob layout is implicitly versioned: it only ever travels inside
// cache entries, whose keys include kSnapshotFormatVersion — bump that
// when changing this encoding and stale blobs are simply never looked up.

void writeCellIdVec(flowdb::ByteWriter& w,
                    const std::vector<netlist::CellId>& v) {
  w.u64(v.size());
  for (netlist::CellId id : v) w.u32(id.value);
}

std::vector<netlist::CellId> readCellIdVec(flowdb::ByteReader& r) {
  std::vector<netlist::CellId> v(r.u64());
  for (netlist::CellId& id : v) id = netlist::CellId{r.u32()};
  return v;
}

void writeIntVec(flowdb::ByteWriter& w, const std::vector<int>& v) {
  w.u64(v.size());
  for (int x : v) w.i32(x);
}

std::vector<int> readIntVec(flowdb::ByteReader& r) {
  std::vector<int> v(r.u64());
  for (int& x : v) x = r.i32();
  return v;
}

void writeStrVec(flowdb::ByteWriter& w, const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> readStrVec(flowdb::ByteReader& r) {
  std::vector<std::string> v(r.u64());
  for (std::string& s : v) s = std::string(r.str());
  return v;
}

void writeDoubleVec(flowdb::ByteWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (double x : v) w.f64(x);
}

std::vector<double> readDoubleVec(flowdb::ByteReader& r) {
  std::vector<double> v(r.u64());
  for (double& x : v) x = r.f64();
  return v;
}

void writeNetIdVec(flowdb::ByteWriter& w,
                   const std::vector<netlist::NetId>& v) {
  w.u64(v.size());
  for (netlist::NetId id : v) w.u32(id.value);
}

std::vector<netlist::NetId> readNetIdVec(flowdb::ByteReader& r) {
  std::vector<netlist::NetId> v(r.u64());
  for (netlist::NetId& id : v) id = netlist::NetId{r.u32()};
  return v;
}

void writeArcs(flowdb::ByteWriter& w, const std::vector<sta::DisabledArc>& v) {
  w.u64(v.size());
  for (const sta::DisabledArc& a : v) {
    w.str(a.cell);
    w.str(a.from_pin);
  }
}

std::vector<sta::DisabledArc> readArcs(flowdb::ByteReader& r) {
  std::vector<sta::DisabledArc> v(r.u64());
  for (sta::DisabledArc& a : v) {
    a.cell = std::string(r.str());
    a.from_pin = std::string(r.str());
  }
  return v;
}

/// Pass-boundary counter samples (`--trace` runs only): cumulative liberty
/// lookup totals, FlowDB cache traffic and the process's peak RSS, so the
/// trace shows which pass grew which resource (docs/trace-format.md).
void tracePassBoundaryCounters(const liberty::Gatefile& gatefile,
                               const flowdb::PassCache* cache) {
  if (!trace::enabled()) return;
  trace::counter("liberty_cell_lookups",
                 static_cast<double>(gatefile.library().lookupCount()));
  trace::counter("liberty_pin_lookups",
                 static_cast<double>(liberty::detail::pinLookupCount()));
  trace::counter("peak_rss_mb", static_cast<double>(trace::peakRssBytes()) /
                                    (1024.0 * 1024.0));
  if (cache != nullptr) {
    trace::counter("cache_bytes_read",
                   static_cast<double>(cache->stats().bytes_read));
    trace::counter("cache_bytes_written",
                   static_cast<double>(cache->stats().bytes_written));
  }
}

}  // namespace

std::string encodeResult(const DesyncResult& result) {
  flowdb::ByteWriter w;

  w.i32(result.regions.n_groups);
  writeIntVec(w, result.regions.group_of_cell);
  w.u64(result.regions.seq_cells.size());
  for (const auto& g : result.regions.seq_cells) writeCellIdVec(w, g);
  w.u64(result.regions.comb_cells.size());
  for (const auto& g : result.regions.comb_cells) writeCellIdVec(w, g);

  w.i32(result.ddg.n_groups);
  w.u64(result.ddg.preds.size());
  for (const auto& p : result.ddg.preds) writeIntVec(w, p);
  w.u64(result.ddg.succs.size());
  for (const auto& s : result.ddg.succs) writeIntVec(w, s);

  writeNetIdVec(w, result.substitution.master_enable);
  writeNetIdVec(w, result.substitution.slave_enable);
  w.u64(result.substitution.ffs_replaced);
  w.u64(result.substitution.glue_cells_added);

  w.f64(result.timing.per_level_delay_ns);
  writeDoubleVec(w, result.timing.required_delay_ns);

  w.u64(result.control.regions.size());
  for (const RegionControl& rc : result.control.regions) {
    w.i32(rc.group);
    w.str(rc.master_cell);
    w.str(rc.slave_cell);
    w.i32(rc.delay_levels);
    w.f64(rc.required_delay_ns);
    w.f64(rc.matched_delay_ns);
  }
  writeArcs(w, result.control.loop_cuts);
  writeStrVec(w, result.control.size_only_cells);
  w.f64(result.control.per_level_delay_ns);

  w.u64(result.sdc.clocks.size());
  for (const sta::SdcClock& c : result.sdc.clocks) {
    w.str(c.name);
    w.f64(c.period_ns);
    w.f64(c.rise_at_ns);
    w.f64(c.fall_at_ns);
    writeStrVec(w, c.targets);
    w.u8(c.targets_are_pins ? 1 : 0);
  }
  writeArcs(w, result.sdc.disabled);
  writeStrVec(w, result.sdc.size_only);
  w.u64(result.sdc.path_delays.size());
  for (const sta::SdcPathDelay& d : result.sdc.path_delays) {
    w.u8(d.is_max ? 1 : 0);
    w.f64(d.value_ns);
    w.str(d.from);
    w.str(d.to);
  }

  w.f64(result.sync_min_period_ns);
  w.u64(result.corner_periods.size());
  for (const DesyncResult::CornerPeriod& c : result.corner_periods) {
    w.str(c.corner);
    w.f64(c.delay_scale);
    w.f64(c.min_period_ns);
  }

  return w.take();
}

void decodeResult(std::string_view blob, DesyncResult& result) {
  flowdb::ByteReader r(blob);

  result.regions.n_groups = r.i32();
  result.regions.group_of_cell = readIntVec(r);
  result.regions.seq_cells.resize(r.u64());
  for (auto& g : result.regions.seq_cells) g = readCellIdVec(r);
  result.regions.comb_cells.resize(r.u64());
  for (auto& g : result.regions.comb_cells) g = readCellIdVec(r);

  result.ddg.n_groups = r.i32();
  result.ddg.preds.resize(r.u64());
  for (auto& p : result.ddg.preds) p = readIntVec(r);
  result.ddg.succs.resize(r.u64());
  for (auto& s : result.ddg.succs) s = readIntVec(r);

  result.substitution.master_enable = readNetIdVec(r);
  result.substitution.slave_enable = readNetIdVec(r);
  result.substitution.ffs_replaced = r.u64();
  result.substitution.glue_cells_added = r.u64();

  result.timing.per_level_delay_ns = r.f64();
  result.timing.required_delay_ns = readDoubleVec(r);

  result.control.regions.resize(r.u64());
  for (RegionControl& rc : result.control.regions) {
    rc.group = r.i32();
    rc.master_cell = std::string(r.str());
    rc.slave_cell = std::string(r.str());
    rc.delay_levels = r.i32();
    rc.required_delay_ns = r.f64();
    rc.matched_delay_ns = r.f64();
  }
  result.control.loop_cuts = readArcs(r);
  result.control.size_only_cells = readStrVec(r);
  result.control.per_level_delay_ns = r.f64();

  result.sdc.clocks.resize(r.u64());
  for (sta::SdcClock& c : result.sdc.clocks) {
    c.name = std::string(r.str());
    c.period_ns = r.f64();
    c.rise_at_ns = r.f64();
    c.fall_at_ns = r.f64();
    c.targets = readStrVec(r);
    c.targets_are_pins = r.u8() != 0;
  }
  result.sdc.disabled = readArcs(r);
  result.sdc.size_only = readStrVec(r);
  result.sdc.path_delays.resize(r.u64());
  for (sta::SdcPathDelay& d : result.sdc.path_delays) {
    d.is_max = r.u8() != 0;
    d.value_ns = r.f64();
    d.from = std::string(r.str());
    d.to = std::string(r.str());
  }

  result.sync_min_period_ns = r.f64();
  result.corner_periods.resize(r.u64());
  for (DesyncResult::CornerPeriod& c : result.corner_periods) {
    c.corner = std::string(r.str());
    c.delay_scale = r.f64();
    c.min_period_ns = r.f64();
  }

  if (!r.atEnd()) {
    throw flowdb::FlowDbError("flowdb: trailing bytes in result blob");
  }
}

// --- FlowSession ----------------------------------------------------------

FlowSession::~FlowSession() = default;

FlowSession::FlowSession(netlist::Design& design, netlist::Module& module,
                         const liberty::Gatefile& gatefile,
                         const DesyncOptions& options, DesyncResult& result)
    : design_(design),
      module_(module),
      gatefile_(gatefile),
      options_(options),
      result_(result) {
  if (options.flowdb.cache_dir.empty()) return;
  try {
    cache_ = std::make_unique<flowdb::PassCache>(options.flowdb.cache_dir);
  } catch (const flowdb::FlowDbError& e) {
    result_.flow.note(std::string("flowdb disabled: ") + e.what());
    return;
  }

  // Base key: format + tool identity, library binding, and the full input
  // design state.  --jobs is deliberately absent: the flow is deterministic
  // across worker counts, so cached state is valid at any --jobs.
  library_fingerprint_ = gatefile.library().contentHash();
  util::KeyHasher h;
  h.u32(flowdb::kSnapshotFormatVersion);
  h.str(kToolVersion);
  h.str(gatefile.library().name);
  h.u64(library_fingerprint_);
  if (options.flowdb.eco) {
    // ECO mode never serializes the design: the input is diffed against
    // per-object record tables instead (core/eco.h), so the key chain
    // carries configuration only and acts as the tables' guard.
    eco_mode_ = true;
    if (options.flowdb.resume) {
      result_.flow.note("--resume is ignored in --eco mode");
    }
  } else {
    flowdb::SnapshotMeta meta;
    meta.tool_version = std::string(kToolVersion);
    meta.library = gatefile.library().name;
    meta.library_fingerprint = library_fingerprint_;
    h.str(flowdb::serializeDesign(design, meta));
  }
  key_ = h.key();

  if (options.flowdb.resume && !eco_mode_) {
    std::string diag;
    checkpoint_ = cache_->loadCheckpoint(&diag);
    if (!diag.empty()) result_.flow.note(diag);
    if (!checkpoint_.has_value()) {
      result_.flow.note("resume requested but no valid checkpoint found");
    }
  }
}

void FlowSession::addPass(
    const char* name,
    const std::function<void(util::KeyHasher&)>& fingerprint,
    const std::function<void(ScopedPass&)>& body) {
  util::KeyHasher h;
  h.absorb(key_);
  h.str(name);
  if (fingerprint) fingerprint(h);
  key_ = h.key();
  passes_.push_back(Pass{name, body, key_});
}

int FlowSession::findRestorePoint() {
  trace::Span span("cache_probe", "flowdb");
  for (int i = static_cast<int>(passes_.size()) - 1; i >= 0; --i) {
    const util::CacheKey& key = passes_[static_cast<std::size_t>(i)].key;
    if (checkpoint_.has_value() &&
        checkpoint_->pass_index == static_cast<std::uint32_t>(i) &&
        checkpoint_->key == key) {
      pending_entry_ = std::move(checkpoint_->entry);
      checkpoint_.reset();
      restore_source_ = "checkpoint";
      return i;
    }
    std::string diag;
    std::optional<std::string> entry = cache_->load(key, &diag);
    if (!diag.empty()) result_.flow.note(diag);
    if (entry.has_value()) {
      pending_entry_ = std::move(*entry);
      restore_source_ = "cache";
      return i;
    }
  }
  return -1;
}

void FlowSession::applyPending(const char* pass) {
  if (!pending_entry_.has_value()) return;
  trace::Span span("cache_restore", "flowdb");
  try {
    flowdb::ByteReader r(*pending_entry_);
    const std::string_view snapshot = r.str();
    const std::string_view blob = r.str();
    flowdb::restoreDesign(design_, snapshot);
    decodeResult(blob, result_);
  } catch (const std::exception& e) {
    pending_entry_.reset();
    throw flowdb::FlowDbError(std::string("flowdb: cannot apply state of ") +
                              pass + ": " + e.what());
  }
  pending_entry_.reset();
}

void FlowSession::computePass(const Pass& pass, std::uint32_t index) {
  try {
    ScopedPass scoped(result_.flow, pass.name);
    pass.body(scoped);
  } catch (const FlowError&) {
    throw;
  } catch (const std::exception& e) {
    // ~ScopedPass already appended the failing pass's stat.
    throw FlowError(pass.name, result_.flow, e.what());
  }
  if (!result_.flow.passes().empty()) {
    compute_ms_ += result_.flow.passes().back().wall_ms;
  }

  if (cacheActive() && !eco_mode_) {
    trace::Span span("cache_store", "flowdb");
    flowdb::SnapshotMeta meta;
    meta.tool_version = std::string(kToolVersion);
    meta.library = gatefile_.library().name;
    meta.library_fingerprint = library_fingerprint_;
    flowdb::ByteWriter entry;
    entry.str(flowdb::serializeDesign(design_, meta));
    entry.str(encodeResult(result_));
    cache_->store(pass.key, entry.bytes());
    cache_->storeCheckpoint(index, pass.name, pass.key, entry.bytes());
  }
  tracePassBoundaryCounters(gatefile_, cache_.get());
}

void FlowSession::run() {
  int restored = -1;
  if (cacheActive() && eco_mode_) {
    // The guard key chains every registered pass plus the FE options the
    // post-session checks depend on; any configuration drift makes the
    // stored tables unreachable (cold ECO run) instead of subtly stale.
    const auto t0 = Clock::now();
    util::KeyHasher h;
    h.absorb(key_);
    h.u64(static_cast<std::uint64_t>(options_.fe.mode));
    h.u64(options_.fe.prove_max_conflicts);
    eco_ = std::make_unique<EcoContext>(*cache_, module_, gatefile_, h.key(),
                                        result_.flow);
    restore_ms_ = msSince(t0);
  }
  if (cacheActive() && !eco_mode_) {
    const auto t0 = Clock::now();
    restored = findRestorePoint();
    if (restored >= 0) {
      const char* name = passes_[static_cast<std::size_t>(restored)].name;
      try {
        applyPending(name);
      } catch (const flowdb::FlowDbError& e) {
        // A validated envelope whose body still fails to decode: fall all
        // the way back to a cold run rather than giving up.
        result_.flow.note(e.what());
        restored = -1;
      }
    }
    restore_ms_ = msSince(t0);
    // One report row per restored pass; the whole probe+restore cost is
    // charged to the restore point itself.
    for (int i = 0; i <= restored; ++i) {
      PassStat& stat =
          result_.flow.addPass(passes_[static_cast<std::size_t>(i)].name);
      stat.source = restore_source_;
      if (i == restored) stat.wall_ms = restore_ms_;
    }
    if (restored >= 0) tracePassBoundaryCounters(gatefile_, cache_.get());
  }

  for (std::size_t i = static_cast<std::size_t>(restored + 1);
       i < passes_.size(); ++i) {
    computePass(passes_[i], static_cast<std::uint32_t>(i));
  }

  if (!cacheActive()) return;
  const flowdb::CacheStats& cs = cache_->stats();
  FlowCacheStats stats;
  stats.enabled = true;
  // ECO mode reads no whole-design entries; restore_ms is the table
  // load + diff cost and the restore detail lives in the "eco" section.
  stats.hits = eco_mode_ ? 0 : static_cast<std::uint64_t>(restored + 1);
  stats.misses = eco_mode_ ? 0 : passes_.size() - stats.hits;
  stats.bytes_read = cs.bytes_read;
  stats.bytes_written = cs.bytes_written;
  stats.restore_ms = restore_ms_;
  stats.compute_ms = compute_ms_;
  result_.flow.setCacheStats(stats);
}

void FlowSession::ecoFinish() {
  if (eco_ != nullptr) eco_->finish(result_.flow);
}

}  // namespace desync::core
