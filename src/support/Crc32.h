//===-- support/Crc32.h - CRC-32 checksums ----------------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans,
/// computed eight bytes at a time (slicing-by-8). Guards every demo stream
/// on disk: a bit-flip or truncation of a demo file must surface as a
/// precise load error, never as a confusing replay desynchronisation hours
/// later.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_CRC32_H
#define TSR_SUPPORT_CRC32_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsr {

namespace detail {

/// Slicing-by-8 tables: Table[0] is the classic bytewise table, and
/// Table[K][B] is the CRC state after byte B followed by K zero bytes, so
/// eight lookups advance the checksum over eight input bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables makeCrc32Tables() {
  Crc32Tables Table{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    Table[0][I] = C;
  }
  for (size_t K = 1; K != 8; ++K)
    for (uint32_t I = 0; I != 256; ++I)
      Table[K][I] =
          (Table[K - 1][I] >> 8) ^ Table[0][Table[K - 1][I] & 0xFF];
  return Table;
}

inline constexpr Crc32Tables Crc32Table = makeCrc32Tables();

/// Little-endian 32-bit word at \p P, which need not be aligned. Written
/// bytewise so one path serves every host; GCC folds it into one load.
inline uint32_t loadLe32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

} // namespace detail

/// CRC-32 of \p Size bytes at \p Data. \p Seed chains incremental updates:
/// pass the previous return value to continue a running checksum.
inline uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0) {
  const detail::Crc32Tables &T = detail::Crc32Table;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t C = ~Seed;
  for (; Size >= 8; P += 8, Size -= 8) {
    const uint32_t Lo = C ^ detail::loadLe32(P);
    const uint32_t Hi = detail::loadLe32(P + 4);
    C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xFF] ^ T[2][(Hi >> 8) & 0xFF] ^
        T[1][(Hi >> 16) & 0xFF] ^ T[0][Hi >> 24];
  }
  for (; Size != 0; ++P, --Size)
    C = T[0][(C ^ *P) & 0xFF] ^ (C >> 8);
  return ~C;
}

/// CRC-32 of a whole byte vector.
inline uint32_t crc32(const std::vector<uint8_t> &Bytes, uint32_t Seed = 0) {
  return crc32(Bytes.data(), Bytes.size(), Seed);
}

} // namespace tsr

#endif // TSR_SUPPORT_CRC32_H
