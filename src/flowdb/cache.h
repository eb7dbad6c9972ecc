// Content-addressed pass cache + checkpoint store.
//
// A PassCache maps 128-bit content keys (util::CacheKey, computed by the
// flow from the input snapshot, the library fingerprint, the tool/format
// versions and each pass's relevant options) to opaque entry payloads on
// disk.  Entries are written atomically — the payload is sealed in an
// envelope, written to a process-unique temp file and renamed into place —
// so a killed run can never leave a half-written entry behind; a reader
// either sees the complete previous entry or none.  Loads validate the
// envelope (magic, format version, checksum) and treat any invalid entry
// as a miss with a diagnostic, so corruption degrades to a cold run rather
// than an error.
//
// The same directory holds one well-known *checkpoint* slot, written after
// every completed flow pass and consumed by `drdesync --resume`: it wraps
// the latest entry payload together with the pass index and chain key it
// corresponds to, letting a restarted run jump straight to the last valid
// state instead of probing the cache pass by pass.
//
// Several concurrent runs — threads in one process (drdesyncd requests)
// or separate processes — may share one cache directory: temp names are
// unique per (process, process-wide counter), stores of the same key race
// benignly (both write identical content; rename is atomic and
// last-writer-wins), and stats are per-PassCache-instance.  As defense in
// depth, every entry payload opens with the key it was stored under and
// load() rejects a mismatch as an invalid entry: a validly-sealed payload
// sitting under the wrong file name (a copied file, or a temp-file
// confusion) can therefore never be restored into the wrong flow.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace desync::flowdb {

/// Traffic counters for one PassCache instance.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< absent or invalid entries
  std::uint64_t invalid = 0;         ///< subset of misses: present but bad
  std::uint64_t version_rejected = 0;  ///< subset of invalid: intact entry
                                       ///< written by another format version
  std::uint64_t bytes_read = 0;      ///< payload bytes of successful loads
  std::uint64_t bytes_written = 0;   ///< payload bytes of successful stores
};

/// On-disk content-addressed store.  All methods are exception-free except
/// the constructor (directory creation failure throws FlowDbError).
class PassCache {
 public:
  /// Opens (creating if needed) the cache directory.
  explicit PassCache(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Loads the entry for `key`.  Returns the payload, or std::nullopt when
  /// the entry is absent or fails validation (envelope magic/version/
  /// checksum, or the payload's embedded key not matching `key`); in the
  /// invalid case a diagnostic is appended to *diag (when given) and the
  /// entry counts as a miss.
  std::optional<std::string> load(const util::CacheKey& key,
                                  std::string* diag = nullptr);

  /// Atomically stores `payload` under `key` (write temp + rename).
  /// Returns false (leaving no partial file) on I/O failure.
  bool store(const util::CacheKey& key, std::string_view payload);

  /// Loads the checkpoint slot: (pass_index, pass_name, key, entry
  /// payload).  std::nullopt when absent/invalid (diagnostic to *diag).
  struct Checkpoint {
    std::uint32_t pass_index = 0;
    std::string pass_name;
    util::CacheKey key;
    std::string entry;
  };
  std::optional<Checkpoint> loadCheckpoint(std::string* diag = nullptr);

  /// Atomically overwrites the checkpoint slot.
  bool storeCheckpoint(std::uint32_t pass_index, std::string_view pass_name,
                       const util::CacheKey& key, std::string_view entry);

  /// Loads a named slot (a well-known single file, like the checkpoint but
  /// caller-defined — the ECO region tables live in one such slot per
  /// design).  `name` must be a plain filename; `magic` is the 8-byte
  /// artifact magic the slot was sealed with.  std::nullopt when absent or
  /// invalid (diagnostic to *diag); version rejections are counted
  /// distinctly in stats().version_rejected.
  std::optional<std::string> loadSlot(std::string_view name,
                                      std::string_view magic,
                                      std::string* diag = nullptr);

  /// Atomically overwrites the named slot.
  bool storeSlot(std::string_view name, std::string_view magic,
                 std::string_view payload);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  std::optional<std::string> readValidated(const std::string& path,
                                           std::string_view magic,
                                           std::string* diag);
  bool writeAtomic(const std::string& path, std::string_view magic,
                   std::string_view payload);

  std::string dir_;
  CacheStats stats_;
};

}  // namespace desync::flowdb
