// FlowDB cache directory: atomically written, validated named slots.
//
// A PassCache is one directory of named slots — well-known single files
// whose payloads the caller defines (the proof tables of core/eco.h
// live in one slot per design).  Slots are written atomically — the
// payload is sealed in an envelope, written to a process-unique temp file
// and exchanged with the old slot (renamed into place when there is none)
// — so a killed run can never leave a half-written slot behind; a reader
// sees the complete previous slot, the complete new one, or none.  A table
// torn by a crash before the kernel flushed it fails the envelope checksum
// and costs only a cold prove.
// Loads validate the envelope (magic, format version, checksum) and treat
// any invalid slot as a miss with a diagnostic, so corruption degrades to
// a cold run rather than an error.
//
// Several concurrent runs — threads in one process (drdesyncd requests)
// or separate processes — may share one cache directory: temp names are
// unique per (process, process-wide counter), stores of one slot race
// benignly (exchange and rename are atomic and last-writer-wins), and
// stats are per-PassCache-instance.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace desync::flowdb {

/// Format version of every slot in a cache directory.  A slot sealed by
/// another version is rejected as a version mismatch, not as corruption;
/// files other than the requested slot are never read.
inline constexpr std::uint32_t kCacheFormatVersion = 7;

/// Traffic counters for one PassCache instance.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< absent or invalid slots
  std::uint64_t invalid = 0;         ///< subset of misses: present but bad
  std::uint64_t version_rejected = 0;  ///< subset of invalid: intact slot
                                       ///< written by another format version
  std::uint64_t bytes_read = 0;      ///< payload bytes of successful loads
  std::uint64_t bytes_written = 0;   ///< payload bytes of successful stores
};

/// On-disk slot store.  All methods are exception-free except the
/// constructor (directory creation failure throws FlowDbError).
class PassCache {
 public:
  /// Opens (creating if needed) the cache directory.
  explicit PassCache(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Loads a named slot.  `name` must be a plain filename; `magic` is the
  /// 8-byte artifact magic the slot was sealed with.  std::nullopt when
  /// absent or invalid (diagnostic to *diag); version rejections are
  /// counted distinctly in stats().version_rejected.
  std::optional<std::string> loadSlot(std::string_view name,
                                      std::string_view magic,
                                      std::string* diag = nullptr);

  /// Atomically overwrites the named slot (write temp, exchange it with the
  /// old slot, unlink the temp).  Returns false (leaving no partial file)
  /// on I/O failure.
  bool storeSlot(std::string_view name, std::string_view magic,
                 std::string_view payload);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  std::string dir_;
  CacheStats stats_;
};

}  // namespace desync::flowdb
