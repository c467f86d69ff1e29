//===-- support/Rle.h - Run-length encoding ---------------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run-length codecs used by the demo format. The paper applies RLE in two
/// places (§4.2, §4.4): the QUEUE tick sequence, where a thread is often
/// scheduled many times in succession, and SYSCALL out-buffers, which are
/// "treated as character buffers and have a simple run length encoding
/// applied".
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_RLE_H
#define TSR_SUPPORT_RLE_H

#include "support/ByteStream.h"

#include <cstdint>
#include <vector>

namespace tsr {
namespace rle {

/// Appends \p Data to \p W as (runLength, byte) pairs.
void encodeBytes(ByteWriter &W, const std::vector<uint8_t> &Data);

/// Decodes a byte buffer previously written by encodeBytes. Returns false on
/// a truncated stream or runs that do not add up to the declared length.
/// \p Out is sized by the runs decoded so far, never by the declared length
/// alone.
bool decodeBytes(ByteReader &R, std::vector<uint8_t> &Out);

} // namespace rle

/// Incremental run-length writer for uint64 sequences. The scheduler appends
/// one value per tick while recording; runs are flushed lazily so the common
/// "same thread scheduled N times" case costs O(1) amortized bytes.
class RleU64Writer {
public:
  explicit RleU64Writer(ByteWriter &W) : W(W) {}
  ~RleU64Writer() { flush(); }

  RleU64Writer(const RleU64Writer &) = delete;
  RleU64Writer &operator=(const RleU64Writer &) = delete;

  /// Appends one value to the logical sequence.
  void push(uint64_t V) {
    if (HaveRun && V == RunValue) {
      ++RunLength;
      return;
    }
    flush();
    HaveRun = true;
    RunValue = V;
    RunLength = 1;
  }

  /// Writes any buffered run to the underlying stream.
  void flush() {
    if (!HaveRun)
      return;
    W.writeVarU64(RunLength);
    W.writeVarU64(RunValue);
    HaveRun = false;
    RunLength = 0;
  }

private:
  ByteWriter &W;
  bool HaveRun = false;
  uint64_t RunValue = 0;
  uint64_t RunLength = 0;
};

/// Incremental run-length reader matching RleU64Writer; pops one value per
/// call. Used by replay to consume the QUEUE sequence one tick at a time.
class RleU64Reader {
public:
  explicit RleU64Reader(ByteReader R) : R(std::move(R)) {}

  /// Pops the next value of the logical sequence. Returns false once the
  /// sequence is exhausted (demo ended).
  bool pop(uint64_t &Out) {
    if (Remaining == 0) {
      if (!R.readVarU64(Remaining) || !R.readVarU64(Value) || Remaining == 0)
        return false;
    }
    --Remaining;
    Out = Value;
    return true;
  }

  /// True if no further values can be popped.
  bool atEnd() {
    return Remaining == 0 && R.atEnd();
  }

private:
  ByteReader R;
  uint64_t Remaining = 0;
  uint64_t Value = 0;
};

} // namespace tsr

#endif // TSR_SUPPORT_RLE_H
