#pragma once
// The unified wire protocol: every device<->aggregator and aggregator<->
// aggregator message travels as one versioned, self-describing frame
//
//   offset 0  u16  magic            0x4D45 ("EM", little-endian)
//   offset 2  u8   protocol version kProtocolVersion
//   offset 3  u8   message type     MsgType
//   offset 4  u32  payload length   bytes following the header
//   offset 8  ...  payload          per-type body (its fields() list)
//
// `seal()` wraps a typed message into a frame; `decode_any()` parses a frame
// into a `Message` variant or a typed `DecodeFailure` — malformed input
// (truncated, corrupted, bad magic, unknown version) always yields an error
// value, never undefined behaviour and never an uncaught exception.  Callers
// dispatch with `std::visit` (see `Overload`) instead of switching on topic
// or kind strings.
//
// This header is also the single home of the MQTT topic map and the legacy
// backhaul kind names (now just the MsgType's wire name, kept for logs and
// trace series).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "chain/block.hpp"
#include "core/messages.hpp"
#include "util/bytes.hpp"

namespace emon::core::protocol {

// -- Frame constants ----------------------------------------------------------

inline constexpr std::uint16_t kMagic = 0x4D45;  // "EM"
inline constexpr std::uint8_t kProtocolVersion = 1;
/// magic(2) + version(1) + type(1) + payload length(4).
inline constexpr std::size_t kHeaderSize = 8;

// -- Message types ------------------------------------------------------------
//
// MsgType (messages.hpp) names the type byte; each message struct carries its
// own `kType` and `kWireName`, and the functions below fold over `Message`.

/// Stable wire name (the former backhaul `kind` strings), for logs/traces.
[[nodiscard]] std::string_view wire_name(MsgType t) noexcept;

/// True if `raw` is a defined MsgType value.
[[nodiscard]] bool is_known_msg_type(std::uint8_t raw) noexcept;

/// Permissioned-chain block replication (was backhaul kind "chain_block").
struct ChainBlock {
  static constexpr auto kType = MsgType::kChainBlock;
  static constexpr std::string_view kWireName = "chain_block";
  chain::Block block;

  template <class IO>
  friend void fields(IO& io, ChainBlock& m) {
    io(m.block);
  }
};

/// The closed set of protocol messages.  Everything on the wire is exactly
/// one of these.
using Message =
    std::variant<RegisterRequest, Report, CtrlMessage, Beacon,
                 VerifyDeviceQuery, VerifyDeviceResponse, RoamRecords,
                 TransferMembership, RemoveDevice, ChainBlock,
                 SubscribeRequest, SubscribeAck, RollupPush, Unsubscribe,
                 StatsRequest, StatsResponse>;

/// Runtime MsgType of a Message variant.
[[nodiscard]] MsgType msg_type_of(const Message& m) noexcept;

/// Wire name of a message struct instance — for the generic fallback arm of
/// a visitor, where only the deduced type identifies the message.
template <typename M>
[[nodiscard]] std::string_view wire_name_of(const M&) noexcept {
  return M::kWireName;
}

// -- Decode errors ------------------------------------------------------------

enum class DecodeFault : std::uint8_t {
  kTruncatedHeader,      // fewer than kHeaderSize bytes
  kBadMagic,             // first two bytes are not kMagic
  kUnsupportedVersion,   // version other than kProtocolVersion
  kUnknownType,          // type byte outside the MsgType enum
  kLengthMismatch,       // declared payload length != bytes present
  kMalformedPayload,     // header fine, body failed its codec
};

[[nodiscard]] const char* to_string(DecodeFault f) noexcept;

struct DecodeFailure {
  DecodeFault fault = DecodeFault::kMalformedPayload;
  std::string detail;
};

/// Minimal expected-or-error: a decode either yields T or a DecodeFailure.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}                 // NOLINT implicit
  Result(DecodeFailure failure) : v_(std::move(failure)) {} // NOLINT implicit

  [[nodiscard]] bool ok() const noexcept { return v_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] T& value() { return std::get<0>(v_); }
  [[nodiscard]] const T& value() const { return std::get<0>(v_); }
  [[nodiscard]] const DecodeFailure& failure() const { return std::get<1>(v_); }

 private:
  std::variant<T, DecodeFailure> v_;
};

// -- Envelope -----------------------------------------------------------------

/// A parsed frame header plus its (still encoded) payload.
struct Envelope {
  MsgType type = MsgType::kRegisterRequest;
  std::vector<std::uint8_t> payload;

  /// Total frame size this envelope seals to.
  [[nodiscard]] std::size_t frame_size() const noexcept {
    return kHeaderSize + payload.size();
  }
};

/// Writes magic, version and type: the header up to the payload length.
void write_frame_start(util::ByteWriter& w, MsgType type);

/// Frames a payload: header + body bytes.
[[nodiscard]] std::vector<std::uint8_t> seal(
    MsgType type, std::span<const std::uint8_t> payload);

/// Frames a typed message: the header, then its body as a length-prefixed
/// field list.
[[nodiscard]] std::vector<std::uint8_t> seal(const Message& m);
template <typename M>
[[nodiscard]] std::vector<std::uint8_t> seal(const M& m) {
  util::ByteWriter w;
  write_frame_start(w, M::kType);
  util::FieldWriter{w}.nested(m);
  // Frames wait in queues and pre-built traffic: drop the growth slack.
  std::vector<std::uint8_t> frame = w.take();
  frame.shrink_to_fit();
  return frame;
}

/// Header-only parse: validates magic/version/type/length and hands back the
/// envelope without decoding the body.  Never throws.
[[nodiscard]] Result<Envelope> open(std::span<const std::uint8_t> frame);

/// Full parse: open() + the type's strict field-list decode, which must
/// consume the payload exactly.  Never throws.
[[nodiscard]] Result<Message> decode_any(std::span<const std::uint8_t> frame);
[[nodiscard]] Result<Message> decode_any(
    const std::vector<std::uint8_t>& frame);

// -- Dispatch -----------------------------------------------------------------

/// Lambda-overload set for `std::visit` over `Message`:
///   std::visit(Overload{
///       [&](const Report& r) { ... },
///       [&](const auto& other) { ... fallback ... },
///   }, message);
template <class... Fs>
struct Overload : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overload(Fs...) -> Overload<Fs...>;

// -- Topic map (device<->aggregator, MQTT) ------------------------------------
//
// The one home of every topic string in the system; nothing else spells
// "emon/..." out by hand.

inline constexpr std::string_view kTopicRegisterPrefix = "emon/register/";
inline constexpr std::string_view kTopicReportPrefix = "emon/report/";
inline constexpr std::string_view kTopicCtrlPrefix = "emon/ctrl/";
inline constexpr std::string_view kTopicBeacon = "emon/beacon";
/// Dashboard clients publish SubscribeRequest/Unsubscribe frames here; the
/// aggregator answers on the client's push topic (emon/push/<client_id>).
inline constexpr std::string_view kTopicSubscribe = "emon/sub";
inline constexpr std::string_view kTopicPushPrefix = "emon/push/";
/// Admin clients publish StatsRequest frames here; the aggregator answers
/// with a StatsResponse on the client's push topic (emon/push/<client_id>).
inline constexpr std::string_view kTopicMetrics = "emon/metrics";

/// Aggregator-side subscription filters.
inline constexpr std::string_view kFilterRegister = "emon/register/+";
inline constexpr std::string_view kFilterReport = "emon/report/+";

[[nodiscard]] std::string topic_register(const DeviceId& id);
[[nodiscard]] std::string topic_report(const DeviceId& id);
[[nodiscard]] std::string topic_ctrl(const DeviceId& id);
[[nodiscard]] std::string topic_push(const std::string& client_id);

}  // namespace emon::core::protocol
