#include "util/bytes.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace emon::util {

namespace {

/// The little-endian bytes of `v`.
template <class T>
std::array<std::uint8_t, sizeof(T)> le_bytes(T v) {
  std::array<std::uint8_t, sizeof(T)> bytes{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return bytes;
}

template <class T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  const auto bytes = le_bytes(v);
  buf.insert(buf.end(), bytes.begin(), bytes.end());
}

}  // namespace

void ByteWriter::u16(std::uint16_t v) { append_le(buf_, v); }

void ByteWriter::u32(std::uint32_t v) { append_le(buf_, v); }

void ByteWriter::u64(std::uint64_t v) { append_le(buf_, v); }

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::patch_u32(std::size_t at, std::uint32_t v) {
  const auto bytes = le_bytes(v);
  std::copy(bytes.begin(), bytes.end(),
            buf_.begin() + static_cast<std::ptrdiff_t>(at));
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw DecodeError("truncated input: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  std::uint16_t v = 0;
  v |= static_cast<std::uint16_t>(data_[pos_]);
  v = static_cast<std::uint16_t>(
      v | static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  require(n);
  if (n == 0) {
    return {};  // data() may be null on an empty span; don't touch it
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> ByteReader::raw(std::size_t n) {
  const auto bytes = view(n);
  return {bytes.begin(), bytes.end()};
}

std::span<const std::uint8_t> ByteReader::view(std::size_t n) {
  require(n);
  const auto bytes = data_.subspan(pos_, n);
  pos_ += n;
  return bytes;
}

std::optional<std::uint16_t> ByteReader::try_u16() noexcept {
  if (remaining() < 2) {
    return std::nullopt;
  }
  return u16();
}

std::optional<std::uint32_t> ByteReader::try_u32() noexcept {
  if (remaining() < 4) {
    return std::nullopt;
  }
  return u32();
}

std::optional<std::uint64_t> ByteReader::try_u64() noexcept {
  if (remaining() < 8) {
    return std::nullopt;
  }
  return u64();
}

std::optional<std::string> ByteReader::try_str() {
  // The length prefix and the body must both fit; otherwise leave the
  // position where it was so the caller sees a consistent reader.
  if (remaining() < 4) {
    return std::nullopt;
  }
  const std::size_t mark = pos_;
  const std::uint32_t n = u32();
  if (remaining() < n) {
    pos_ = mark;
    return std::nullopt;
  }
  if (n == 0) {
    return std::string{};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::optional<std::vector<std::uint8_t>> ByteReader::try_raw(std::size_t n) {
  if (remaining() < n) {
    return std::nullopt;
  }
  return raw(n);
}

}  // namespace emon::util
