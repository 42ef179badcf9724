#pragma once
// Byte-level serialization.
//
// Blocks, consumption records and protocol messages are serialized into a
// canonical little-endian wire format; the block hash is computed over this
// canonical form so that serialization is part of the tamper-evidence
// guarantee (any bit flip changes the hash).

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace emon::util {

/// Appends fixed-width little-endian integers, doubles (IEEE-754 bit
/// pattern) and length-prefixed strings to a growing buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern; canonical across platforms we target.
  void f64(double v);
  /// u32 length prefix followed by raw bytes.
  void str(std::string_view s);
  void raw(std::span<const std::uint8_t> bytes);
  /// LEB128 variable-length unsigned integer (1-10 bytes).
  void varint(std::uint64_t v);
  /// ZigZag-mapped signed varint: small magnitudes (either sign) stay short.
  void zigzag(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  /// Room for `n` bytes in all, so a writer that knows its final size can
  /// hand over a buffer without growth slack.
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Thrown when a reader runs past the end of its buffer or a length prefix
/// is inconsistent — i.e. the input is corrupt or truncated.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reads back the `ByteWriter` format.  All throwing methods raise
/// `DecodeError` on truncation rather than returning garbage; the `try_*`
/// family instead returns `std::nullopt`, leaving the read position
/// untouched, so frame parsers can surface recoverable decode errors
/// without exception control flow.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::uint8_t> raw(std::size_t n);

  // Non-throwing variants.  On truncation they return nullopt and do not
  // advance, so the caller can report the error and stop cleanly.
  [[nodiscard]] std::optional<std::uint8_t> try_u8() noexcept {
    if (remaining() < 1) {
      return std::nullopt;
    }
    return data_[pos_++];
  }
  [[nodiscard]] std::optional<std::uint16_t> try_u16() noexcept;
  [[nodiscard]] std::optional<std::uint32_t> try_u32() noexcept;
  [[nodiscard]] std::optional<std::uint64_t> try_u64() noexcept;
  [[nodiscard]] std::optional<std::string> try_str();
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> try_raw(
      std::size_t n);
  /// LEB128 varint; nullopt (position untouched) on truncation or a
  /// malformed >10-byte encoding.  Always inlined: the store's segment
  /// decoder calls it once per column per record on every range query, and
  /// a call per varint cost more than the decode itself there.
  [[nodiscard, gnu::always_inline]] std::optional<std::uint64_t>
  try_varint() noexcept {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 10 && pos_ + i < data_.size(); ++i) {
      const std::uint8_t byte = data_[pos_ + i];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        pos_ += i + 1;
        return v;
      }
    }
    return std::nullopt;  // truncated, or continuation bits past 10 bytes
  }
  [[nodiscard, gnu::always_inline]] std::optional<std::int64_t>
  try_zigzag() noexcept {
    const auto raw = try_varint();
    if (!raw) {
      return std::nullopt;
    }
    return static_cast<std::int64_t>((*raw >> 1) ^ (~(*raw & 1) + 1));
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace emon::util
