#include "core/protocol.hpp"

#include <exception>

#include "util/bytes.hpp"

namespace emon::core::protocol {

namespace {

/// Calls `f(std::type_identity<M>{})` for the Message alternative M whose
/// kType is `type`; false when no alternative has that type.
template <class F>
bool with_type(MsgType type, F&& f) {
  return [&]<class... M>(std::type_identity<std::variant<M...>>) {
    return ((M::kType == type && (f(std::type_identity<M>{}), true)) || ...);
  }(std::type_identity<Message>{});
}

// decode_any() takes the first alternative with a frame's type byte, so a
// second alternative with the same byte could never be decoded.
static_assert(
    []<class... M>(std::type_identity<std::variant<M...>>) {
      const MsgType types[] = {M::kType...};
      for (std::size_t i = 0; i < sizeof...(M); ++i) {
        for (std::size_t j = i + 1; j < sizeof...(M); ++j) {
          if (types[i] == types[j]) {
            return false;
          }
        }
      }
      return true;
    }(std::type_identity<Message>{}),
    "two Message alternatives share a MsgType");

}  // namespace

std::string_view wire_name(MsgType t) noexcept {
  std::string_view name = "?";
  with_type(t, [&]<class M>(std::type_identity<M>) { name = M::kWireName; });
  return name;
}

bool is_known_msg_type(std::uint8_t raw) noexcept {
  return with_type(static_cast<MsgType>(raw), [](auto) {});
}

MsgType msg_type_of(const Message& m) noexcept {
  return std::visit(
      [](const auto& alt) { return std::decay_t<decltype(alt)>::kType; }, m);
}

const char* to_string(DecodeFault f) noexcept {
  switch (f) {
    case DecodeFault::kTruncatedHeader:
      return "truncated-header";
    case DecodeFault::kBadMagic:
      return "bad-magic";
    case DecodeFault::kUnsupportedVersion:
      return "unsupported-version";
    case DecodeFault::kUnknownType:
      return "unknown-type";
    case DecodeFault::kLengthMismatch:
      return "length-mismatch";
    case DecodeFault::kMalformedPayload:
      return "malformed-payload";
  }
  return "?";
}

void write_frame_start(util::ByteWriter& w, MsgType type) {
  w.u16(kMagic);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
}

std::vector<std::uint8_t> seal(MsgType type,
                               std::span<const std::uint8_t> payload) {
  util::ByteWriter w;
  write_frame_start(w, type);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  return w.take();
}

std::vector<std::uint8_t> seal(const Message& m) {
  return std::visit([](const auto& alt) { return seal(alt); }, m);
}

namespace {

std::string to_hex(std::uint32_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  bool started = false;
  for (int shift = 28; shift >= 0; shift -= 4) {
    const auto nibble = (v >> shift) & 0xF;
    if (nibble != 0 || started || shift == 0) {
      out.push_back(kDigits[nibble]);
      started = true;
    }
  }
  return out;
}

/// Validated header fields plus a view of the payload (no copy).
struct HeaderView {
  MsgType type = MsgType::kRegisterRequest;
  std::span<const std::uint8_t> payload;
};

Result<HeaderView> parse_header(std::span<const std::uint8_t> frame) {
  util::ByteReader r{frame};
  const auto magic = r.try_u16();
  const auto version = r.try_u8();
  const auto type = r.try_u8();
  const auto length = r.try_u32();
  if (!magic || !version || !type || !length) {
    return DecodeFailure{DecodeFault::kTruncatedHeader,
                         "frame of " + std::to_string(frame.size()) +
                             " bytes is shorter than the header"};
  }
  if (*magic != kMagic) {
    return DecodeFailure{DecodeFault::kBadMagic, "magic " + to_hex(*magic)};
  }
  if (*version != kProtocolVersion) {
    return DecodeFailure{DecodeFault::kUnsupportedVersion,
                         "version " + std::to_string(*version) +
                             " != supported " +
                             std::to_string(kProtocolVersion)};
  }
  if (!is_known_msg_type(*type)) {
    return DecodeFailure{DecodeFault::kUnknownType, "type " + to_hex(*type)};
  }
  if (*length != r.remaining()) {
    return DecodeFailure{DecodeFault::kLengthMismatch,
                         "declared " + std::to_string(*length) +
                             " payload bytes, " +
                             std::to_string(r.remaining()) + " present"};
  }
  HeaderView view;
  view.type = static_cast<MsgType>(*type);
  view.payload = frame.subspan(kHeaderSize);
  return view;
}

}  // namespace

Result<Envelope> open(std::span<const std::uint8_t> frame) {
  Result<HeaderView> parsed = parse_header(frame);
  if (!parsed) {
    return parsed.failure();
  }
  Envelope env;
  env.type = parsed.value().type;
  env.payload.assign(parsed.value().payload.begin(),
                     parsed.value().payload.end());
  return env;
}

Result<Message> decode_any(std::span<const std::uint8_t> frame) {
  Result<HeaderView> parsed = parse_header(frame);
  if (!parsed) {
    return parsed.failure();
  }
  const std::span<const std::uint8_t> payload = parsed.value().payload;
  Result<Message> out = DecodeFailure{DecodeFault::kUnknownType, "?"};
  with_type(parsed.value().type, [&]<class M>(std::type_identity<M>) {
    try {
      out = Message{util::from_bytes<M>(payload)};
    } catch (const std::exception& e) {
      out = DecodeFailure{DecodeFault::kMalformedPayload,
                          std::string(M::kWireName) + ": " + e.what()};
    }
  });
  return out;
}

Result<Message> decode_any(const std::vector<std::uint8_t>& frame) {
  return decode_any(std::span<const std::uint8_t>(frame.data(), frame.size()));
}

std::string topic_register(const DeviceId& id) {
  return std::string(kTopicRegisterPrefix) + id;
}
std::string topic_report(const DeviceId& id) {
  return std::string(kTopicReportPrefix) + id;
}
std::string topic_ctrl(const DeviceId& id) {
  return std::string(kTopicCtrlPrefix) + id;
}
std::string topic_push(const std::string& client_id) {
  return std::string(kTopicPushPrefix) + client_id;
}

}  // namespace emon::core::protocol
