// Seeded mutation test over protocol::decode_any.  Starting from one sealed
// frame of every MsgType, each case applies one to three random edits (bit
// flips, payload truncations, byte insertions, rewrites of a u32 that may be
// a length or count prefix) and checks the decoder's contract on hostile
// bytes: the frame either fails with a typed DecodeFailure, or it decodes to
// a message that seals back to exactly the mutated bytes.  The second arm is
// canonical decoding: one accepted encoding per message, so no field can
// carry a value the chain's hash would not see.
//
// The generator is util::Rng with a fixed seed and budget, so a failure
// reproduces from its printed case; ctest runs it under ASan/UBSan in the
// debug-sanitized build.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "util/rng.hpp"
#include "wire_samples.hpp"

namespace emon::core::protocol {
namespace {

constexpr std::uint64_t kSeed = 0x5EEDF022;
constexpr int kCasesPerType = 1000;

std::uint32_t read_u32(const std::vector<std::uint8_t>& f, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(f[at + i]) << (8 * i);
  }
  return v;
}

void write_u32(std::vector<std::uint8_t>& f, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    f[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Re-declares the payload length after a payload edit, so the edit reaches
/// the body codec instead of stopping at the header check.
void fix_length(std::vector<std::uint8_t>& f) {
  write_u32(f, 4, static_cast<std::uint32_t>(f.size() - kHeaderSize));
}

/// Applies one random edit to `f` and returns its description.
std::string mutate(std::vector<std::uint8_t>& f, util::Rng& rng) {
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      const std::size_t at = pick(0, f.size() - 1);
      const std::size_t bit = pick(0, 7);
      f[at] ^= static_cast<std::uint8_t>(1u << bit);
      return "flip bit " + std::to_string(bit) + " of byte " +
             std::to_string(at);
    }
    case 1: {
      if (f.size() == kHeaderSize) {
        return "no-op truncation of an empty payload";
      }
      const std::size_t len = pick(kHeaderSize, f.size() - 1);
      f.resize(len);
      fix_length(f);
      return "truncate to " + std::to_string(len) + " bytes";
    }
    case 2: {
      const std::size_t at = pick(kHeaderSize, f.size());
      const auto byte = static_cast<std::uint8_t>(pick(0, 255));
      f.insert(f.begin() + static_cast<std::ptrdiff_t>(at), byte);
      fix_length(f);
      return "insert " + std::to_string(byte) + " at byte " +
             std::to_string(at);
    }
    default: {
      if (f.size() < 8) {
        return "no-op u32 rewrite of a short frame";
      }
      // Offset 4 is the header's length; later offsets hit string lengths,
      // sequence counts and nested-body lengths, or plain fields.
      const std::size_t at = pick(4, f.size() - 4);
      const std::uint32_t old = read_u32(f, at);
      static constexpr std::uint32_t kExtremes[] = {0, 1, 0x7FFFFFFF,
                                                    0xFFFFFFFF};
      const std::size_t which = pick(0, 5);
      const std::uint32_t v = which == 4   ? old + 1
                              : which == 5 ? old - 1
                                           : kExtremes[which];
      write_u32(f, at, v);
      return "u32 at byte " + std::to_string(at) + " := " + std::to_string(v);
    }
  }
}

TEST(WireFuzz, MutatedFramesFailTypedOrResealIdentically) {
  util::Rng rng{kSeed};
  for (const Message& sample : wire_samples::messages()) {
    const auto original = seal(sample);
    const std::string_view type = wire_name(msg_type_of(sample));
    for (int c = 0; c < kCasesPerType; ++c) {
      std::vector<std::uint8_t> frame = original;
      std::string edits;
      const auto n_edits = rng.uniform_int(1, 3);
      for (std::int64_t e = 0; e < n_edits; ++e) {
        edits += (e == 0 ? "" : ", ") + mutate(frame, rng);
      }
      const auto decoded = decode_any(frame);
      if (decoded.ok()) {
        if (seal(decoded.value()) != frame) {
          ADD_FAILURE() << type << " case " << c << " (" << edits
                        << ") decodes but does not re-seal to its bytes";
          break;
        }
        continue;
      }
      const DecodeFailure& f = decoded.failure();
      if (std::string_view(to_string(f.fault)) == "?" || f.detail.empty() ||
          f.detail.find("bad_alloc") != std::string::npos) {
        ADD_FAILURE() << type << " case " << c << " (" << edits
                      << ") fails untyped: " << to_string(f.fault) << " / "
                      << f.detail;
        break;
      }
    }
  }
}

}  // namespace
}  // namespace emon::core::protocol
