#include "flowdb/cache.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "flowdb/io.h"
#include "trace/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace desync::flowdb {

using util::CacheKey;

namespace fs = std::filesystem;

namespace {

// Version 3: the directory additionally carries named slots (per-design ECO
// region tables, see core/eco.h) next to the entry/checkpoint files, and
// readers surface cross-version artifacts with a distinct `version`
// diagnostic instead of folding them into corruption.  Version 2 entry
// payloads opened with the 16-byte cache key they were stored under,
// validated on load (see PassCache::load) — v3 keeps that layout.
constexpr std::uint32_t kCacheFormatVersion = 3;
constexpr std::string_view kEntryMagic = "DSYNCENT";
constexpr std::string_view kCheckpointMagic = "DSYNCCKP";
constexpr std::string_view kCheckpointFile = "checkpoint.ckpt";

std::uint64_t processId() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

/// Reads a whole file; std::nullopt when it does not exist or cannot be
/// read.  Sized bulk read — entries are megabytes and a streambuf iterator
/// loop would dominate warm lookups.
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string data(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(data.data(), size);
  if (!in || in.gcount() != size) return std::nullopt;
  return data;
}

}  // namespace

PassCache::PassCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw FlowDbError("cache: cannot create directory '" + dir_ +
                      "': " + ec.message());
  }
}

std::optional<std::string> PassCache::readValidated(const std::string& path,
                                                    std::string_view magic,
                                                    std::string* diag) {
  std::optional<std::string> raw = slurp(path);
  if (!raw.has_value()) {
    ++stats_.misses;
    trace::instant("flowdb_miss", "flowdb");
    return std::nullopt;
  }
  try {
    std::string_view payload = openEnvelope(*raw, magic, kCacheFormatVersion);
    ++stats_.hits;
    stats_.bytes_read += payload.size();
    trace::instant("flowdb_hit", "flowdb");
    return std::string(payload);
  } catch (const FlowDbVersionError& e) {
    if (diag != nullptr) {
      if (!diag->empty()) diag->append("; ");
      diag->append(path).append(": ").append(e.what());
    }
    ++stats_.misses;
    ++stats_.invalid;
    ++stats_.version_rejected;
    trace::instant("flowdb_version_rejected", "flowdb");
    return std::nullopt;
  } catch (const FlowDbError& e) {
    if (diag != nullptr) {
      if (!diag->empty()) diag->append("; ");
      diag->append(path).append(": ").append(e.what());
    }
    ++stats_.misses;
    ++stats_.invalid;
    trace::instant("flowdb_invalid_entry", "flowdb");
    return std::nullopt;
  }
}

bool PassCache::writeAtomic(const std::string& path, std::string_view magic,
                            std::string_view payload) {
  const std::string sealed = sealEnvelope(magic, kCacheFormatVersion, payload);
  // The counter is process-wide, not per-instance: concurrent sessions on
  // the same directory (e.g. drdesyncd requests) each construct their own
  // PassCache, and per-instance counters would collide on the same temp
  // name — one writer's completed temp gets rewritten by another before
  // the rename, publishing a validly-sealed foreign payload under this
  // writer's path.
  static std::atomic<std::uint64_t> temp_counter{0};
  const std::string tmp =
      dir_ + "/.tmp." + std::to_string(processId()) + "." +
      std::to_string(temp_counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(sealed.data(), static_cast<std::streamsize>(sealed.size()));
    out.flush();
    if (!out) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<std::string> PassCache::load(const CacheKey& key,
                                           std::string* diag) {
  const std::string path = dir_ + "/" + key.hex() + ".entry";
  std::optional<std::string> raw = slurp(path);
  if (!raw.has_value()) {
    ++stats_.misses;
    trace::instant("flowdb_miss", "flowdb");
    return std::nullopt;
  }
  try {
    std::string_view wrapped =
        openEnvelope(*raw, kEntryMagic, kCacheFormatVersion);
    // Entries open with the key they were stored under; a mismatch means
    // the file holds another key's payload (a copied file, or a write
    // confusion) — the envelope checksum cannot catch that, because the
    // foreign payload is validly sealed.  Restoring it would silently
    // corrupt the flow, so treat it as an invalid entry.
    ByteReader head(wrapped);
    CacheKey stored;
    stored.hi = head.u64();
    stored.lo = head.u64();
    if (stored != key) {
      throw FlowDbError("entry key mismatch: payload was stored under " +
                        stored.hex());
    }
    std::string payload(wrapped.substr(16));
    ++stats_.hits;
    stats_.bytes_read += payload.size();
    trace::instant("flowdb_hit", "flowdb");
    return payload;
  } catch (const FlowDbVersionError& e) {
    // Intact entry from another cache-format version (a cache directory
    // shared across builds after the v2->v3 bump): a distinct diagnostic
    // and counter, not corruption — the flow degrades to a cold run and
    // re-stores in the current format.
    if (diag != nullptr) {
      if (!diag->empty()) diag->append("; ");
      diag->append(path).append(": ").append(e.what());
    }
    ++stats_.misses;
    ++stats_.invalid;
    ++stats_.version_rejected;
    trace::instant("flowdb_version_rejected", "flowdb");
    return std::nullopt;
  } catch (const FlowDbError& e) {
    if (diag != nullptr) {
      if (!diag->empty()) diag->append("; ");
      diag->append(path).append(": ").append(e.what());
    }
    ++stats_.misses;
    ++stats_.invalid;
    trace::instant("flowdb_invalid_entry", "flowdb");
    return std::nullopt;
  }
}

bool PassCache::store(const CacheKey& key, std::string_view payload) {
  ByteWriter w;
  w.u64(key.hi);
  w.u64(key.lo);
  w.bytesRaw(payload);
  const bool ok = writeAtomic(dir_ + "/" + key.hex() + ".entry", kEntryMagic,
                              w.bytes());
  if (ok) stats_.bytes_written += payload.size();
  return ok;
}

std::optional<PassCache::Checkpoint> PassCache::loadCheckpoint(
    std::string* diag) {
  std::optional<std::string> payload =
      readValidated(dir_ + "/" + std::string(kCheckpointFile), kCheckpointMagic,
                    diag);
  if (!payload.has_value()) return std::nullopt;
  try {
    ByteReader r(*payload);
    Checkpoint ck;
    ck.pass_index = r.u32();
    ck.pass_name = std::string(r.str());
    ck.key.hi = r.u64();
    ck.key.lo = r.u64();
    ck.entry = std::string(r.str());
    if (!r.atEnd()) throw FlowDbError("trailing bytes");
    return ck;
  } catch (const FlowDbError& e) {
    if (diag != nullptr) {
      if (!diag->empty()) diag->append("; ");
      diag->append("checkpoint: ").append(e.what());
    }
    return std::nullopt;
  }
}

bool PassCache::storeCheckpoint(std::uint32_t pass_index,
                                std::string_view pass_name,
                                const CacheKey& key, std::string_view entry) {
  ByteWriter w;
  w.u32(pass_index);
  w.str(pass_name);
  w.u64(key.hi);
  w.u64(key.lo);
  w.str(entry);
  return writeAtomic(dir_ + "/" + std::string(kCheckpointFile),
                     kCheckpointMagic, w.bytes());
}

std::optional<std::string> PassCache::loadSlot(std::string_view name,
                                               std::string_view magic,
                                               std::string* diag) {
  return readValidated(dir_ + "/" + std::string(name), magic, diag);
}

bool PassCache::storeSlot(std::string_view name, std::string_view magic,
                          std::string_view payload) {
  return writeAtomic(dir_ + "/" + std::string(name), magic, payload);
}

}  // namespace desync::flowdb
