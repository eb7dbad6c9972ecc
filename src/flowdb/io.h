// Byte-stream primitives for the FlowDB persistence layer.
//
// Every FlowDB artifact (the proof tables of core/eco.h) is a flat
// byte string produced by a ByteWriter and consumed by a ByteReader.
// Multi-byte integers are encoded little-endian *explicitly* (byte shifts,
// not memcpy), so files written on one host read identically on any other;
// doubles travel as their IEEE-754 bit pattern, which makes serialization
// exact — a value restored from a table is bit-identical to the value
// that was saved, a prerequisite for the flow's byte-identical-output
// guarantee.
//
// Artifacts are framed by an *envelope*: an 8-byte magic, a format-version
// word, the payload size, the payload, and a trailing 64-bit checksum over
// everything before it.  openEnvelope() rejects truncation, foreign files,
// unknown format versions and corruption with distinct diagnostics instead
// of reading garbage.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace desync::flowdb {

/// Error raised on malformed, truncated or corrupted FlowDB artifacts.
class FlowDbError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A structurally sound artifact written by a different format version.
/// Distinct from corruption: the file is intact, this build just does not
/// read that version.  Callers that degrade to a cold run can count and
/// report the two cases separately (see CacheStats::version_rejected).
class FlowDbVersionError : public FlowDbError {
 public:
  using FlowDbError::FlowDbError;
};

/// Exact (bit-pattern) double <-> u64 conversion for serialization.
inline std::uint64_t bitsOfDouble(double v) {
  return std::bit_cast<std::uint64_t>(v);
}
inline double doubleOfBits(std::uint64_t b) { return std::bit_cast<double>(b); }

/// Append-only little-endian byte-stream builder.
class ByteWriter {
 public:
  // Multi-byte writes stage the shifted bytes in a stack buffer and append
  // once: tables are built from hundreds of thousands of these calls, and a
  // per-byte push_back chain dominates serialization time.
  void u32(std::uint32_t v) {
    const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16),
                       static_cast<char>(v >> 24)};
    buf_.append(b, 4);
  }
  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 8);
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(bitsOfDouble(v)); }
  /// Length-prefixed byte string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  /// Raw bytes, no length prefix (envelope framing, pre-framed blobs).
  void bytesRaw(std::string_view s) { buf_.append(s); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte string; throws FlowDbError on underrun
/// so a truncated artifact can never be silently read past its end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  // Multi-byte reads bounds-check once and assemble with shifts (restore
  // speed matters: a warm run replays its whole table through these).
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(byteAt(i)) << (8 * i);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(byteAt(i)) << (8 * i);
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] double f64() { return doubleOfBits(u64()); }
  [[nodiscard]] std::string_view str() {
    const std::uint32_t n = u32();
    need(n);
    std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool atEnd() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw FlowDbError("flowdb: truncated stream (need " + std::to_string(n) +
                        " bytes at offset " + std::to_string(pos_) + ")");
    }
  }
  [[nodiscard]] std::uint8_t byteAt(int i) const {
    return static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]);
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- envelope framing ----------------------------------------------------

inline constexpr std::size_t kMagicSize = 8;
inline constexpr std::size_t kEnvelopeHeaderSize = kMagicSize + 4 + 4;
inline constexpr std::size_t kEnvelopeOverhead = kEnvelopeHeaderSize + 8;

/// Frames `payload`: magic + version + size + payload + fnv64 checksum.
inline std::string sealEnvelope(std::string_view magic, std::uint32_t version,
                                std::string_view payload) {
  ByteWriter w;
  w.bytesRaw(magic);
  w.u32(version);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytesRaw(payload);
  util::Fnv64 sum;
  sum.update(w.bytes());
  w.u64(sum.digest());
  return w.take();
}

/// Validates the envelope and returns the payload view.  Throws FlowDbError
/// with a distinct diagnostic for: truncation, wrong magic (foreign file),
/// unsupported format version, and checksum mismatch (corruption).
inline std::string_view openEnvelope(std::string_view bytes,
                                     std::string_view magic,
                                     std::uint32_t expected_version) {
  if (bytes.size() < kEnvelopeOverhead) {
    throw FlowDbError("flowdb: truncated file (" +
                      std::to_string(bytes.size()) + " bytes, header needs " +
                      std::to_string(kEnvelopeOverhead) + ")");
  }
  if (bytes.substr(0, kMagicSize) != magic) {
    throw FlowDbError("flowdb: bad magic — not a '" + std::string(magic) +
                      "' file");
  }
  ByteReader head(bytes.substr(kMagicSize));
  const std::uint32_t version = head.u32();
  if (version != expected_version) {
    throw FlowDbVersionError(
        "flowdb: unsupported format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(expected_version) +
        ")");
  }
  const std::uint32_t payload_size = head.u32();
  if (bytes.size() != kEnvelopeOverhead + payload_size) {
    throw FlowDbError("flowdb: truncated file (payload declares " +
                      std::to_string(payload_size) + " bytes, file holds " +
                      std::to_string(bytes.size() - kEnvelopeOverhead) + ")");
  }
  util::Fnv64 sum;
  sum.update(bytes.substr(0, bytes.size() - 8));
  ByteReader tail(bytes.substr(bytes.size() - 8));
  if (tail.u64() != sum.digest()) {
    throw FlowDbError("flowdb: checksum mismatch — file is corrupted");
  }
  return bytes.substr(kEnvelopeHeaderSize, payload_size);
}

}  // namespace desync::flowdb
