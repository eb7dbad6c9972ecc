#include "core/flow_cache.h"

#include <chrono>
#include <utility>

#include "core/eco.h"
#include "core/version.h"
#include "flowdb/io.h"
#include "liberty/library.h"
#include "trace/trace.h"

namespace desync::core {

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
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

FlowSession::~FlowSession() = default;

FlowSession::FlowSession(netlist::Module& module,
                         const liberty::Gatefile& gatefile,
                         const DesyncOptions& options, DesyncResult& result)
    : module_(module),
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
  // Guard base: tool identity and library binding.  The input design is
  // deliberately absent — it is diffed against the stored records instead.
  guard_.str(kToolVersion);
  guard_.str(gatefile.library().name);
  guard_.u64(gatefile.library().contentHash());
}

void FlowSession::addPass(
    const char* name,
    const std::function<void(util::KeyHasher&)>& fingerprint,
    const std::function<void(ScopedPass&)>& body) {
  guard_.str(name);
  if (fingerprint) fingerprint(guard_);
  passes_.push_back(Pass{name, body});
}

void FlowSession::computePass(const Pass& pass) {
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
  tracePassBoundaryCounters(gatefile_, cache_.get());
}

void FlowSession::run() {
  if (cache_ != nullptr) {
    // The FE options the post-session checks depend on close the guard.
    const auto t0 = Clock::now();
    util::KeyHasher h = guard_;
    h.u64(static_cast<std::uint64_t>(options_.fe.mode));
    h.u64(options_.fe.prove_max_conflicts);
    eco_ = std::make_unique<EcoContext>(*cache_, module_, gatefile_, h.key(),
                                        result_.flow);
    restore_ms_ = msSince(t0);
  }
  for (const Pass& pass : passes_) computePass(pass);
}

void FlowSession::finish() {
  if (eco_ == nullptr) return;
  eco_->finish(result_.flow);
  // Published after the store, so bytes_written counts the tables.
  const flowdb::CacheStats& cs = cache_->stats();
  FlowCacheStats stats;
  stats.enabled = true;
  stats.hits = eco_->warm() ? 1 : 0;
  stats.misses = 1 - stats.hits;
  stats.bytes_read = cs.bytes_read;
  stats.bytes_written = cs.bytes_written;
  stats.restore_ms = restore_ms_;
  stats.compute_ms = compute_ms_;
  result_.flow.setCacheStats(stats);
  tracePassBoundaryCounters(gatefile_, cache_.get());
}

}  // namespace desync::core
