//===-- support/Rle.cpp - Run-length encoding -------------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/Rle.h"

#include <algorithm>
#include <cstring>

using namespace tsr;

void rle::encodeBytes(ByteWriter &W, const std::vector<uint8_t> &Data) {
  W.writeVarU64(Data.size());
  if (Data.empty())
    return;
  // A run of L bytes costs at most L varint bytes plus the byte itself, so
  // 2N bounds the output: size the tail once, write the runs straight into
  // it, and let the writer trim what is left over.
  W.writeInPlace(2 * Data.size(), [&Data](uint8_t *Out) {
    uint8_t *O = Out;
    const uint8_t *P = Data.data();
    const uint8_t *const End = P + Data.size();
    while (P != End) {
      const uint8_t B = *P;
      const uint8_t *RunEnd = P + 1;
      while (RunEnd != End && *RunEnd == B)
        ++RunEnd;
      // The LEB128 varint ByteWriter::writeVarU64 would append.
      uint64_t Run = static_cast<uint64_t>(RunEnd - P);
      for (; Run >= 0x80; Run >>= 7)
        *O++ = static_cast<uint8_t>(Run) | 0x80;
      *O++ = static_cast<uint8_t>(Run);
      *O++ = B;
      P = RunEnd;
    }
    return static_cast<size_t>(O - Out);
  });
}

bool rle::decodeBytes(ByteReader &R, std::vector<uint8_t> &Out) {
  uint64_t Total;
  if (!R.readVarU64(Total))
    return false;
  // Total is untrusted until runs back it: Out grows only past bytes that
  // validated runs have filled, at most doubling, never beyond Total.
  Out.clear();
  size_t Have = 0;
  while (Have < Total) {
    uint64_t Run;
    uint8_t B;
    if (!R.readVarU64(Run) || !R.readByte(B))
      return false;
    if (Run == 0 || Run > Total - Have)
      return false;
    if (Run > Out.size() - Have)
      Out.resize(std::min<uint64_t>(
          Total, std::max<uint64_t>(Have + Run, 2 * Out.size())));
    if (Run == 1)
      Out[Have] = B;
    else
      std::memset(Out.data() + Have, B, Run);
    Have += Run;
  }
  return true;
}
