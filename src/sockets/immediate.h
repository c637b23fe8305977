// The 32-bit VIA immediate-data format shared by the two VIA-based sockets
// layers (SocketVIA in via_socket.h, RDMA push in rdma_socket.h): a message
// kind in the top 2 bits and a 30-bit value below it.
#pragma once

#include <cstdint>

namespace sv::sockets::imm {

enum class Kind : std::uint32_t {
  kFirst = 0,   // first chunk of a message; value = its total chunk count
  kCont = 1,    // continuation chunk; value unused
  kCredit = 2,  // value = data credits / ring slots returned
  kEof = 3,     // sender half-closed; value unused
};

inline constexpr std::uint32_t kKindShift = 30;
/// Largest value the format carries (also the chunk-count limit).
inline constexpr std::uint32_t kMaxValue = (1u << kKindShift) - 1;

[[nodiscard]] constexpr std::uint32_t encode(Kind kind,
                                             std::uint32_t value = 0) {
  return (static_cast<std::uint32_t>(kind) << kKindShift) |
         (value & kMaxValue);
}

struct Decoded {
  Kind kind;
  std::uint32_t value;
};

[[nodiscard]] constexpr Decoded decode(std::uint32_t immediate) {
  return {static_cast<Kind>(immediate >> kKindShift), immediate & kMaxValue};
}

}  // namespace sv::sockets::imm
