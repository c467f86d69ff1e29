//===-- support/ByteStream.h - Varint byte streams -------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Growable byte buffers with LEB128 varint encoding. These are the
/// primitive record/replay streams underlying every demo file (§4).
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_BYTESTREAM_H
#define TSR_SUPPORT_BYTESTREAM_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace tsr {

/// Append-only byte buffer with varint helpers; the write half of a demo
/// stream.
class ByteWriter {
public:
  /// Appends one raw byte.
  void writeByte(uint8_t B) { Bytes.push_back(B); }

  /// Appends \p Size raw bytes from \p Data.
  void writeRaw(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Bytes.insert(Bytes.end(), P, P + Size);
  }

  /// Appends an unsigned LEB128 varint.
  void writeVarU64(uint64_t V) {
    while (V >= 0x80) {
      Bytes.push_back(static_cast<uint8_t>(V) | 0x80);
      V >>= 7;
    }
    Bytes.push_back(static_cast<uint8_t>(V));
  }

  /// Appends a signed value using zigzag encoding.
  void writeVarI64(int64_t V) {
    writeVarU64((static_cast<uint64_t>(V) << 1) ^
                static_cast<uint64_t>(V >> 63));
  }

  /// Appends a length-prefixed byte string.
  void writeBlob(const void *Data, size_t Size) {
    writeVarU64(Size);
    writeRaw(Data, Size);
  }

  /// Appends a length-prefixed UTF-8 string.
  void writeString(const std::string &S) { writeBlob(S.data(), S.size()); }

  /// Lets an encoder write straight into the buffer: grows it by
  /// \p MaxSize bytes, calls \p Fill with a pointer to the first of them,
  /// and keeps the number of bytes \p Fill returns, which must not exceed
  /// \p MaxSize.
  template <typename FillFn> void writeInPlace(size_t MaxSize, FillFn Fill) {
    const size_t Old = Bytes.size();
    Bytes.resize(Old + MaxSize);
    Bytes.resize(Old + Fill(Bytes.data() + Old));
  }

  const std::vector<uint8_t> &bytes() const { return Bytes; }

  /// Raw pointer to the accumulated bytes. Lets an incremental flusher
  /// copy out a suffix (bytes [Cursor, size())) without consuming the
  /// buffer the way take() does.
  const uint8_t *data() const { return Bytes.data(); }

  size_t size() const { return Bytes.size(); }
  bool empty() const { return Bytes.empty(); }
  void clear() { Bytes.clear(); }

  /// Moves the accumulated bytes out of the writer.
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
};

/// Sequential reader over a byte buffer; the replay half of a demo stream.
///
/// All read operations are fallible: running past the end of a stream is a
/// legal occurrence during replay (the demo is exhausted and execution
/// continues free-running, §4), so readers report failure through their
/// return value instead of aborting.
class ByteReader {
public:
  ByteReader() = default;
  explicit ByteReader(std::vector<uint8_t> Data) : Bytes(std::move(Data)) {}

  /// Reads one byte into \p Out. Returns false at end of stream.
  bool readByte(uint8_t &Out) {
    if (Pos >= Bytes.size())
      return false;
    Out = Bytes[Pos++];
    return true;
  }

  /// Reads \p Size raw bytes into \p Out. Returns false (consuming nothing)
  /// if fewer than \p Size bytes remain.
  bool readRaw(void *Out, size_t Size) {
    if (Pos + Size > Bytes.size())
      return false;
    std::memcpy(Out, Bytes.data() + Pos, Size);
    Pos += Size;
    return true;
  }

  /// Reads an unsigned LEB128 varint. Returns false on truncation or
  /// overlong encoding.
  bool readVarU64(uint64_t &Out) {
    uint64_t V = 0;
    unsigned Shift = 0;
    while (Shift < 64) {
      uint8_t B;
      if (!readByte(B))
        return false;
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80)) {
        Out = V;
        return true;
      }
      Shift += 7;
    }
    return false;
  }

  /// Reads a zigzag-encoded signed value.
  bool readVarI64(int64_t &Out) {
    uint64_t U;
    if (!readVarU64(U))
      return false;
    Out = static_cast<int64_t>((U >> 1) ^ (~(U & 1) + 1));
    return true;
  }

  /// Reads a length-prefixed byte string.
  bool readBlob(std::vector<uint8_t> &Out) {
    uint64_t Size;
    if (!readVarU64(Size) || Pos + Size > Bytes.size())
      return false;
    Out.assign(Bytes.begin() + Pos, Bytes.begin() + Pos + Size);
    Pos += Size;
    return true;
  }

  /// Reads a length-prefixed UTF-8 string.
  bool readString(std::string &Out) {
    uint64_t Size;
    if (!readVarU64(Size) || Pos + Size > Bytes.size())
      return false;
    Out.assign(reinterpret_cast<const char *>(Bytes.data()) + Pos, Size);
    Pos += Size;
    return true;
  }

  /// True when every byte has been consumed.
  bool atEnd() const { return Pos >= Bytes.size(); }
  size_t position() const { return Pos; }
  size_t size() const { return Bytes.size(); }

  /// Repositions the cursor (clamped to the end). Lets a speculative
  /// decoder scan forward non-destructively: note position(), probe, and
  /// seek() back on failure.
  void seek(size_t NewPos) { Pos = NewPos < Bytes.size() ? NewPos : Bytes.size(); }

private:
  std::vector<uint8_t> Bytes;
  size_t Pos = 0;
};

} // namespace tsr

#endif // TSR_SUPPORT_BYTESTREAM_H
