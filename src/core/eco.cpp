#include "core/eco.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "flowdb/io.h"

namespace desync::core {

namespace {

constexpr std::string_view kSlotMagic = "DSYNCECO";

/// One slot per design: the module name, sanitized to a plain filename.
std::string slotNameFor(std::string_view module_name) {
  std::string s = "eco-";
  for (char c : module_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    s += ok ? c : '_';
  }
  s += ".tbl";
  return s;
}

}  // namespace

std::unique_ptr<ProofCache> ProofCache::open(const DesyncOptions& options,
                                             std::string_view module_name,
                                             FlowReport& flow) {
  if (options.flowdb.cache_dir.empty()) return nullptr;
  if (options.fe.mode == FeMode::kSim) {
    flow.note(
        "eco: --cache-dir holds flow-equivalence proofs only and the prover "
        "is off (--fe-mode sim); nothing was loaded or stored");
    return nullptr;
  }
  ScopedPass pass(flow, "eco_load");
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<flowdb::PassCache> dir;
  try {
    dir = std::make_unique<flowdb::PassCache>(options.flowdb.cache_dir);
  } catch (const flowdb::FlowDbError& e) {
    flow.note(std::string("flowdb disabled: ") + e.what());
    return nullptr;
  }
  std::unique_ptr<ProofCache> cache(new ProofCache(std::move(dir),
                                                   module_name));
  cache->load(flow);
  cache->load_ms_ = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return cache;
}

ProofCache::ProofCache(std::unique_ptr<flowdb::PassCache> cache,
                       std::string_view module_name)
    : cache_(std::move(cache)),
      module_name_(module_name),
      slot_name_(slotNameFor(module_name)) {}

void ProofCache::load(FlowReport& flow) {
  std::string diag;
  const std::optional<std::string> payload =
      cache_->loadSlot(slot_name_, kSlotMagic, &diag);
  if (!diag.empty()) flow.note("eco: " + diag);
  if (!payload.has_value()) return;  // first run: every proof runs
  try {
    flowdb::ByteReader r(*payload);
    const std::string stored_module(r.str());
    if (stored_module != module_name_) {
      flow.note("eco: the proof table belongs to design '" + stored_module +
                "'; re-proving every register");
      return;
    }
    const std::uint64_t n = r.u64();
    table_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      util::CacheKey key;
      key.hi = r.u64();
      key.lo = r.u64();
      sim::symfe::StoredProof p;
      p.trivial = r.u32() != 0;
      p.conflicts = r.u64();
      p.decisions = r.u64();
      table_.emplace(key, p);
    }
    if (!r.atEnd()) throw flowdb::FlowDbError("trailing bytes");
    warm_ = true;
  } catch (const flowdb::FlowDbError& e) {
    flow.note(std::string("eco: invalid proof table (") + e.what() +
              "); re-proving every register");
    table_.clear();
  }
}

bool ProofCache::sameAsLoaded(
    const std::vector<const sim::symfe::RegisterProof*>& proved) const {
  if (!warm_ || proved.size() < table_.size()) return false;
  for (const sim::symfe::RegisterProof* p : proved) {
    const auto it = table_.find(*p->key);
    if (it == table_.end() || it->second.trivial != p->trivial ||
        it->second.conflicts != p->conflicts ||
        it->second.decisions != p->decisions) {
      return false;
    }
  }
  // Every proof is in the table; they cover it unless two registers share
  // a key, so count the distinct keys.
  std::vector<util::CacheKey> keys;
  keys.reserve(proved.size());
  for (const sim::symfe::RegisterProof* p : proved) keys.push_back(*p->key);
  const auto less = [](const util::CacheKey& a, const util::CacheKey& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  };
  std::sort(keys.begin(), keys.end(), less);
  const auto distinct = static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
  return distinct == table_.size();
}

void ProofCache::finish(const sim::symfe::SymfeReport& report,
                        FlowReport& flow, double compute_ms) {
  FlowReport::EcoSection eco;
  eco.warm = warm_;
  eco.proofs_loaded = static_cast<std::int64_t>(table_.size());
  eco.registers_restored = static_cast<std::int64_t>(report.restored);
  {
    ScopedPass pass(flow, "eco_store");
    std::vector<const sim::symfe::RegisterProof*> proved;
    for (const sim::symfe::RegisterProof& p : report.registers) {
      if (p.key.has_value() && p.verdict == sim::symfe::RegVerdict::kProved) {
        proved.push_back(&p);
      }
    }
    if (!sameAsLoaded(proved)) {
      flowdb::ByteWriter w;
      w.str(module_name_);
      w.u64(proved.size());
      for (const sim::symfe::RegisterProof* p : proved) {
        w.u64(p->key->hi);
        w.u64(p->key->lo);
        w.u32(p->trivial ? 1 : 0);
        w.u64(p->conflicts);
        w.u64(p->decisions);
      }
      if (!cache_->storeSlot(slot_name_, kSlotMagic, w.bytes())) {
        flow.note("eco: failed to store the proof table");
      }
      eco.proofs_stored = static_cast<std::int64_t>(proved.size());
    }
  }
  flow.setEco(eco);
  // Published after the store, so bytes_written counts the table.
  const flowdb::CacheStats& cs = cache_->stats();
  FlowCacheStats stats;
  stats.enabled = true;
  stats.hits = warm_ ? 1 : 0;
  stats.misses = 1 - stats.hits;
  stats.bytes_read = cs.bytes_read;
  stats.bytes_written = cs.bytes_written;
  stats.restore_ms = load_ms_;
  stats.compute_ms = compute_ms;
  flow.setCacheStats(stats);
}

}  // namespace desync::core
