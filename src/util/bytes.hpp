#pragma once
// Byte-level serialization.
//
// Blocks, consumption records and protocol messages are serialized into a
// canonical little-endian wire format; the block hash is computed over this
// canonical form so that serialization is part of the tamper-evidence
// guarantee (any bit flip changes the hash).  Each of those types states its
// layout once, as a field list run by FieldWriter and FieldReader (below).

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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
  /// Overwrites the u32 at byte `at` (a length written before its body).
  void patch_u32(std::size_t at, std::uint32_t v);
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
  // Fixed-width reads: one bounds check, then one little-endian load.
  [[nodiscard]] std::uint16_t u16() { return fixed<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return fixed<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return fixed<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::uint8_t> raw(std::size_t n);
  /// The next `n` bytes, without a copy.
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t n);

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
  /// read_varint's refusals.  Only kVarintTruncated means the input ran
  /// out; the other two are malformed encodings.  Callers classify a
  /// reason by comparing against these pointers: each is one inline array,
  /// so it has one address in every translation unit.
  static constexpr char kVarintTruncated[] = "truncated varint";
  static constexpr char kVarintOverlong[] = "over-long varint";
  static constexpr char kVarintOverflow[] = "varint overflows 64 bits";

  /// The one LEB128 varint decoder, as strict as FieldReader: the encoding
  /// must be minimal (no trailing 0x00 group) and fit 64 bits (a tenth
  /// byte of 0 or 1).  On success stores the value in `out`, advances and
  /// returns nullptr; otherwise returns why (one of the reasons above) and
  /// leaves the position untouched.  Always inlined: the store's segment
  /// decoder calls it once per column per record on every range query, and
  /// a call per varint cost more than the decode itself there.
  [[nodiscard, gnu::always_inline]] const char* read_varint(
      std::uint64_t& out) noexcept {
    std::uint64_t v = 0;
    const std::size_t left = data_.size() - pos_;
    const std::size_t n = std::min<std::size_t>(9, left);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t byte = data_[pos_ + i];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        if ((byte == 0) & (i != 0)) [[unlikely]] {
          return kVarintOverlong;
        }
        pos_ += i + 1;
        out = v;
        return nullptr;
      }
    }
    if (left < 10) {
      return kVarintTruncated;
    }
    // A tenth byte carries bit 63 only.
    const std::uint8_t last = data_[pos_ + 9];
    if (last == 0) {
      return kVarintOverlong;
    }
    if (last > 1) {
      return kVarintOverflow;
    }
    pos_ += 10;
    out = v | (std::uint64_t{1} << 63);
    return nullptr;
  }
  /// read_varint of a ZigZag-mapped signed value.
  [[nodiscard, gnu::always_inline]] const char* read_zigzag(
      std::int64_t& out) noexcept {
    std::uint64_t raw = 0;
    const char* why = read_varint(raw);
    if (why == nullptr) {
      out = static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    }
    return why;
  }
  /// read_varint / read_zigzag, with nullopt for any failure.
  [[nodiscard, gnu::always_inline]] std::optional<std::uint64_t>
  try_varint() noexcept {
    std::uint64_t v = 0;
    if (read_varint(v) != nullptr) {
      return std::nullopt;
    }
    return v;
  }
  [[nodiscard, gnu::always_inline]] std::optional<std::int64_t>
  try_zigzag() noexcept {
    std::int64_t v = 0;
    if (read_zigzag(v) != nullptr) {
      return std::nullopt;
    }
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) [[unlikely]] {
      throw_truncated(n);
    }
  }
  [[noreturn]] void throw_truncated(std::size_t n) const;
  /// A fixed-width little-endian integer: on a little-endian host one
  /// memcpy, which compiles to a single load; elsewhere byte by byte.
  template <class T>
  [[nodiscard]] T fixed() {
    require(sizeof(T));
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += sizeof(T);
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(v | static_cast<T>(p[i]) << (8 * i));
      }
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// -- Field lists ----------------------------------------------------------------
//
// A wire type states its layout once, as a field list that both directions
// run:
//
//   template <class IO>
//   friend void fields(IO& io, Beacon& m) {
//     io(m.aggregator_id, m.master_time_ns);
//   }
//
// A field's C++ type picks its encoding: bool is a 0/1 byte; u8, u32, u64
// and i64 are fixed-width little-endian; double is its IEEE-754 pattern; a
// string, byte vector or vector<T> is a u32 length or count and then its
// elements; an optional<T> is a presence flag and then the value (T{} when
// absent); a byte array is its bytes; any other type is its own field list,
// found by ADL.  Enumerations, varints and length-prefixed bodies are
// named calls.
//
// FieldReader is strict, so every input it accepts re-encodes to itself:
// flags are 0/1, enumerations stay in range, an absent optional carries T{},
// varints are minimal, a count may not exceed the bytes left over its
// element's smallest encoding (so a short input never backs a large
// allocation), a nested body is consumed exactly, and from_bytes() requires
// the value to end the input.  Every failure throws DecodeError.

/// Bytes of the smallest encoding of a T (its default value).
template <class T>
[[nodiscard]] std::size_t min_encoded_size();

/// Appends field lists to a ByteWriter.
class FieldWriter {
 public:
  explicit FieldWriter(ByteWriter& w) noexcept : w_(w) {}

  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }
  template <class... T>
  void varint(const T&... v) {
    (w_.varint(v), ...);
  }
  void zigzag(std::int64_t v) { w_.zigzag(v); }
  /// One byte; `last` bounds the reader.
  template <class E>
  void enumeration(E v, E /*last*/) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  /// A u32 byte length, then `v`.
  template <class T>
  void nested(const T& v) {
    const std::size_t at = w_.size();
    w_.u32(0);
    put(v);
    w_.patch_u32(at, static_cast<std::uint32_t>(w_.size() - at - 4));
  }

 private:
  void put(bool v) { w_.u8(v ? 1 : 0); }
  void put(std::uint8_t v) { w_.u8(v); }
  void put(std::uint32_t v) { w_.u32(v); }
  void put(std::uint64_t v) { w_.u64(v); }
  void put(std::int64_t v) { w_.i64(v); }
  void put(double v) { w_.f64(v); }
  void put(const std::string& v) { w_.str(v); }
  template <std::size_t N>
  void put(const std::array<std::uint8_t, N>& v) {
    w_.raw(v);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    w_.u32(static_cast<std::uint32_t>(v.size()));
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      w_.raw(v);
    } else {
      for (const T& e : v) {
        put(e);
      }
    }
  }
  template <class T>
  void put(const std::optional<T>& v) {
    put(v.has_value());
    put(v ? *v : T{});
  }
  template <class T>
  void put(const T& v) {
    static_assert(std::is_class_v<T>, "name the encoding of this field");
    // A field list only reads through the reference when writing.
    fields(*this, const_cast<T&>(v));
  }

  ByteWriter& w_;
};

/// Reads field lists back, strictly (see above).
class FieldReader {
 public:
  explicit FieldReader(ByteReader& r) noexcept : r_(r) {}

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  template <class... T>
  void varint(T&... v) {
    (read_varint(v), ...);
  }
  void zigzag(std::int64_t& v) {
    std::uint64_t raw = 0;
    read_varint(raw);
    v = static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }
  template <class E>
  void enumeration(E& v, E last) {
    const std::uint8_t raw = r_.u8();
    if (raw > static_cast<std::uint8_t>(last)) {
      throw DecodeError("enumeration byte " + std::to_string(raw) +
                        " out of range");
    }
    v = static_cast<E>(raw);
  }
  template <class T>
  void nested(T& v) {
    ByteReader body{r_.view(r_.u32())};
    FieldReader{body}.whole(v);
  }
  /// Reads `v`, which must end the input.
  template <class T>
  void whole(T& v) {
    get(v);
    if (!r_.done()) {
      throw DecodeError(std::to_string(r_.remaining()) + " trailing bytes");
    }
  }

 private:
  void read_varint(std::uint64_t& v) {
    if (const char* error = r_.read_varint(v)) {
      throw DecodeError(error);
    }
  }
  void get(bool& v) {
    const std::uint8_t raw = r_.u8();
    if (raw > 1) {
      throw DecodeError("flag byte " + std::to_string(raw) + " is not 0 or 1");
    }
    v = raw != 0;
  }
  void get(std::uint8_t& v) { v = r_.u8(); }
  void get(std::uint32_t& v) { v = r_.u32(); }
  void get(std::uint64_t& v) { v = r_.u64(); }
  void get(std::int64_t& v) { v = r_.i64(); }
  void get(double& v) { v = r_.f64(); }
  void get(std::string& v) { v = r_.str(); }
  template <std::size_t N>
  void get(std::array<std::uint8_t, N>& v) {
    const auto bytes = r_.view(N);
    std::copy(bytes.begin(), bytes.end(), v.begin());
  }
  template <class T>
  void get(std::vector<T>& v) {
    const std::uint32_t n = r_.u32();
    if (n > r_.remaining() / min_encoded_size<T>()) {
      throw DecodeError("count " + std::to_string(n) + " exceeds the " +
                        std::to_string(r_.remaining()) + " bytes left");
    }
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      v = r_.raw(n);
    } else {
      v.clear();
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        get(v.emplace_back());
      }
    }
  }
  template <class T>
  void get(std::optional<T>& v) {
    bool present = false;
    T value{};
    get(present);
    get(value);
    if (!present && value != T{}) {
      throw DecodeError("absent optional field carries a value");
    }
    v = present ? std::optional<T>(std::move(value)) : std::nullopt;
  }
  template <class T>
  void get(T& v) {
    fields(*this, v);
  }

  ByteReader& r_;
};

template <class T>
std::size_t min_encoded_size() {
  static const std::size_t size = [] {
    ByteWriter w;
    FieldWriter{w}(T{});
    return w.size();
  }();
  return size;
}

/// The encoding of `v`.
template <class T>
[[nodiscard]] std::vector<std::uint8_t> to_bytes(const T& v) {
  ByteWriter w;
  FieldWriter{w}(v);
  return w.take();
}

/// Decodes a T that must span all of `bytes`; throws DecodeError otherwise.
template <class T>
[[nodiscard]] T from_bytes(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  T v{};
  FieldReader{r}.whole(v);
  return v;
}

}  // namespace emon::util
