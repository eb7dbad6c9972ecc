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
#if defined(__linux__)
#include <fcntl.h>   // AT_FDCWD
#include <cstdio>    // renameat2, RENAME_EXCHANGE
#endif

namespace desync::flowdb {

namespace fs = std::filesystem;

namespace {

std::uint64_t processId() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

/// Reads a whole file; std::nullopt when it does not exist or cannot be
/// read.  Sized bulk read — a streambuf iterator loop would dominate warm
/// lookups of megabyte-sized tables.
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

/// Publishes the finished temp file `tmp` as `path`.  An existing slot is
/// swapped with the temp (renameat2 RENAME_EXCHANGE) and the temp, which
/// then holds the old table, is unlinked.  Both steps keep `path` naming a
/// complete table at every instant, like a rename does; but a rename that
/// *replaces* a file makes ext4 (auto_da_alloc, its default) flush the new
/// file's data first, tens of milliseconds per store, while an exchange
/// replaces nothing.  Where the slot does not exist yet, or the kernel or
/// filesystem lacks the exchange, it falls back to rename.
bool publish(const std::string& tmp, const std::string& path) {
#if defined(__linux__) && defined(RENAME_EXCHANGE)
  if (::renameat2(AT_FDCWD, tmp.c_str(), AT_FDCWD, path.c_str(),
                  RENAME_EXCHANGE) == 0) {
    std::error_code ec;
    fs::remove(tmp, ec);  // the old table; a leftover is never read
    return true;
  }
#endif
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
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

std::optional<std::string> PassCache::loadSlot(std::string_view name,
                                               std::string_view magic,
                                               std::string* diag) {
  const std::string path = dir_ + "/" + std::string(name);
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

bool PassCache::storeSlot(std::string_view name, std::string_view magic,
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
  if (!publish(tmp, dir_ + "/" + std::string(name))) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  stats_.bytes_written += payload.size();
  return true;
}

}  // namespace desync::flowdb
