//===-- tests/SupportTest.cpp - Support library unit tests ---------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"
#include "support/Crc32.h"
#include "support/Demo.h"
#include "support/Diag.h"
#include "support/Prng.h"
#include "support/Rle.h"
#include "support/Stats.h"
#include "support/VectorClock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>

using namespace tsr;

namespace {

//===----------------------------------------------------------------------===//
// Prng
//===----------------------------------------------------------------------===//

TEST(Prng, SameSeedsSameStream) {
  Prng A(42, 43), B(42, 43);
  for (int I = 0; I != 1000; ++I)
    ASSERT_EQ(A.next(), B.next()) << "diverged at draw " << I;
}

TEST(Prng, DifferentSeedsDifferentStream) {
  Prng A(42, 43), B(42, 44);
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(Prng, ReseedRestartsStream) {
  Prng A(7, 8);
  std::vector<uint64_t> First;
  for (int I = 0; I != 16; ++I)
    First.push_back(A.next());
  A.reseed(7, 8);
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(A.next(), First[I]);
}

TEST(Prng, ZeroSeedsAreRemapped) {
  Prng A(0, 0);
  // Must not be a stuck all-zero xorshift state.
  uint64_t Or = 0;
  for (int I = 0; I != 8; ++I)
    Or |= A.next();
  EXPECT_NE(Or, 0u);
}

TEST(Prng, NextBelowStaysInBounds) {
  Prng A(1, 2);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 7ull, 100ull, 1ull << 40}) {
    for (int I = 0; I != 200; ++I)
      ASSERT_LT(A.nextBelow(Bound), Bound);
  }
}

TEST(Prng, NextBelowOneAlwaysZero) {
  Prng A(5, 6);
  for (int I = 0; I != 32; ++I)
    EXPECT_EQ(A.nextBelow(1), 0u);
}

TEST(Prng, NextBelowIsRoughlyUniform) {
  Prng A(11, 13);
  constexpr int Buckets = 8;
  constexpr int Draws = 8000;
  int Counts[Buckets] = {};
  for (int I = 0; I != Draws; ++I)
    ++Counts[A.nextBelow(Buckets)];
  for (int B = 0; B != Buckets; ++B) {
    EXPECT_GT(Counts[B], Draws / Buckets / 2) << "bucket " << B;
    EXPECT_LT(Counts[B], Draws / Buckets * 2) << "bucket " << B;
  }
}

TEST(Prng, DrawCountTracksDraws) {
  Prng A(1, 2);
  EXPECT_EQ(A.drawCount(), 0u);
  A.next();
  A.next();
  EXPECT_EQ(A.drawCount(), 2u);
  // nextBelow draws at least once (rejection may draw more).
  A.nextBelow(3);
  EXPECT_GE(A.drawCount(), 3u);
}

TEST(Prng, NextDoubleInUnitInterval) {
  Prng A(3, 4);
  for (int I = 0; I != 1000; ++I) {
    const double D = A.nextDouble();
    ASSERT_GE(D, 0.0);
    ASSERT_LT(D, 1.0);
  }
}

TEST(Prng, FreshEntropyVaries) {
  const auto A = Prng::freshEntropy();
  const auto B = Prng::freshEntropy();
  // Two calls in a row must not collide (time moved, mixing differs).
  EXPECT_TRUE(A != B);
}

//===----------------------------------------------------------------------===//
// ByteStream (varints, blobs, truncation)
//===----------------------------------------------------------------------===//

TEST(ByteStream, VarintRoundTripEdgeValues) {
  const uint64_t Values[] = {0,
                             1,
                             0x7F,
                             0x80,
                             0x3FFF,
                             0x4000,
                             0xFFFFFFFFull,
                             0x123456789ABCDEFull,
                             ~0ull};
  ByteWriter W;
  for (uint64_t V : Values)
    W.writeVarU64(V);
  ByteReader R(W.take());
  for (uint64_t V : Values) {
    uint64_t Out = 0;
    ASSERT_TRUE(R.readVarU64(Out));
    EXPECT_EQ(Out, V);
  }
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteStream, SignedVarintRoundTrip) {
  const int64_t Values[] = {0,  1,  -1, 63, -64, 64,
                            -65, INT64_MAX, INT64_MIN, -12345678};
  ByteWriter W;
  for (int64_t V : Values)
    W.writeVarI64(V);
  ByteReader R(W.take());
  for (int64_t V : Values) {
    int64_t Out = 0;
    ASSERT_TRUE(R.readVarI64(Out));
    EXPECT_EQ(Out, V);
  }
}

TEST(ByteStream, SmallNegativesEncodeCompactly) {
  // Zigzag: -1 must be one byte, not ten.
  ByteWriter W;
  W.writeVarI64(-1);
  EXPECT_EQ(W.size(), 1u);
}

TEST(ByteStream, TruncatedVarintFails) {
  ByteWriter W;
  W.writeVarU64(~0ull);
  std::vector<uint8_t> Bytes = W.take();
  Bytes.pop_back();
  ByteReader R(std::move(Bytes));
  uint64_t Out;
  EXPECT_FALSE(R.readVarU64(Out));
}

TEST(ByteStream, BlobAndStringRoundTrip) {
  ByteWriter W;
  W.writeBlob("hello", 5);
  W.writeString("");
  W.writeString(std::string("nul\0inside", 10));
  ByteReader R(W.take());
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(R.readBlob(Blob));
  EXPECT_EQ(std::string(Blob.begin(), Blob.end()), "hello");
  std::string S;
  ASSERT_TRUE(R.readString(S));
  EXPECT_TRUE(S.empty());
  ASSERT_TRUE(R.readString(S));
  EXPECT_EQ(S.size(), 10u);
}

TEST(ByteStream, BlobLengthBeyondDataFails) {
  ByteWriter W;
  W.writeVarU64(100); // claims 100 bytes
  W.writeRaw("abc", 3);
  ByteReader R(W.take());
  std::vector<uint8_t> Blob;
  EXPECT_FALSE(R.readBlob(Blob));
}

TEST(ByteStream, ReadRawRespectsBounds) {
  ByteWriter W;
  W.writeRaw("abcd", 4);
  ByteReader R(W.take());
  char Buf[8];
  EXPECT_FALSE(R.readRaw(Buf, 8));
  EXPECT_TRUE(R.readRaw(Buf, 4));
  EXPECT_TRUE(R.atEnd());
}

//===----------------------------------------------------------------------===//
// RLE codecs
//===----------------------------------------------------------------------===//

class RleBytesRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RleBytesRoundTrip, RoundTrips) {
  // Parameterised data shapes: empty, constant, alternating, random,
  // long runs with singletons.
  const int Shape = GetParam();
  std::vector<uint8_t> Data;
  Prng Rng(100 + Shape, 200 + Shape);
  switch (Shape) {
  case 0:
    break; // empty
  case 1:
    Data.assign(5000, 0xAB);
    break;
  case 2:
    for (int I = 0; I != 1000; ++I)
      Data.push_back(I & 1 ? 0x00 : 0xFF);
    break;
  case 3:
    for (int I = 0; I != 2048; ++I)
      Data.push_back(static_cast<uint8_t>(Rng.nextBelow(256)));
    break;
  case 4:
    for (int Run = 0; Run != 50; ++Run) {
      const uint8_t B = static_cast<uint8_t>(Rng.nextBelow(4));
      Data.insert(Data.end(), 1 + Rng.nextBelow(300), B);
    }
    break;
  case 5:
    Data.assign(1, 0x42);
    break;
  default:
    FAIL();
  }
  ByteWriter W;
  rle::encodeBytes(W, Data);
  ByteReader R(W.take());
  std::vector<uint8_t> Out;
  ASSERT_TRUE(rle::decodeBytes(R, Out));
  EXPECT_EQ(Out, Data);
  EXPECT_TRUE(R.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Shapes, RleBytesRoundTrip,
                         ::testing::Range(0, 6));

TEST(Rle, CompressesRuns) {
  std::vector<uint8_t> Data(10000, 7);
  ByteWriter W;
  rle::encodeBytes(W, Data);
  EXPECT_LT(W.size(), 16u);
}

TEST(Rle, DecodeRejectsOverflowingRun) {
  ByteWriter W;
  W.writeVarU64(4); // total 4 bytes
  W.writeVarU64(9); // but a run of 9
  W.writeByte(1);
  ByteReader R(W.take());
  std::vector<uint8_t> Out;
  EXPECT_FALSE(rle::decodeBytes(R, Out));
}

TEST(Rle, DecodeRejectsZeroRun) {
  ByteWriter W;
  W.writeVarU64(4);
  W.writeVarU64(0);
  W.writeByte(1);
  ByteReader R(W.take());
  std::vector<uint8_t> Out;
  EXPECT_FALSE(rle::decodeBytes(R, Out));
}

TEST(Rle, IncrementalWriterMatchesReader) {
  std::vector<uint64_t> Seq = {1, 1, 1, 2, 3, 3, 1, 1, 1, 1, 0};
  ByteWriter W;
  {
    RleU64Writer RW(W);
    for (uint64_t V : Seq)
      RW.push(V);
  } // dtor flushes
  RleU64Reader RR(ByteReader(W.take()));
  for (uint64_t V : Seq) {
    uint64_t Out;
    ASSERT_TRUE(RR.pop(Out));
    EXPECT_EQ(Out, V);
  }
  uint64_t Out;
  EXPECT_FALSE(RR.pop(Out));
  EXPECT_TRUE(RR.atEnd());
}

TEST(Rle, IncrementalWriterExplicitFlushIsIdempotent) {
  ByteWriter W;
  RleU64Writer RW(W);
  RW.push(9);
  RW.flush();
  RW.flush();
  RleU64Reader RR(ByteReader(W.bytes()));
  uint64_t Out;
  ASSERT_TRUE(RR.pop(Out));
  EXPECT_EQ(Out, 9u);
  EXPECT_FALSE(RR.pop(Out));
}

//===----------------------------------------------------------------------===//
// CRC-32 and RLE kernels against bytewise oracles
//===----------------------------------------------------------------------===//

/// Bytewise CRC-32 reference that shares nothing with crc32's tables: each
/// table lookup is spelled out as the eight polynomial steps it stands for.
uint32_t crc32Bytewise(const uint8_t *P, size_t Size, uint32_t Seed = 0) {
  uint32_t C = ~Seed;
  for (size_t I = 0; I != Size; ++I) {
    C ^= P[I];
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return ~C;
}

std::vector<uint8_t> randomBytes(size_t Size, uint64_t Seed) {
  Prng Rng(Seed, Seed + 1);
  std::vector<uint8_t> Out(Size);
  for (uint8_t &B : Out)
    B = static_cast<uint8_t>(Rng.next());
  return Out;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32(std::vector<uint8_t>{}), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<uint8_t> Buf = randomBytes(64 + 8, 1);
  for (size_t Off = 0; Off != 8; ++Off)
    for (size_t Len = 0; Len <= 64; ++Len) {
      const uint8_t *P = Buf.data() + Off;
      ASSERT_EQ(crc32(P, Len), crc32Bytewise(P, Len))
          << "offset " << Off << " length " << Len;
      ASSERT_EQ(crc32(P, Len, 0xDEADBEEF), crc32Bytewise(P, Len, 0xDEADBEEF))
          << "seeded, offset " << Off << " length " << Len;
    }
}

TEST(Crc32, ChainedSeedsMatchOneShot) {
  const std::vector<uint8_t> Buf = randomBytes(4096, 2);
  Prng Rng(3, 4);
  uint32_t Chained = 0;
  size_t Off = 0;
  while (Off != Buf.size()) {
    const size_t Len = std::min<size_t>(Rng.nextBelow(40), Buf.size() - Off);
    Chained = crc32(Buf.data() + Off, Len, Chained);
    Off += Len;
  }
  EXPECT_EQ(Chained, crc32Bytewise(Buf.data(), Buf.size()));
  EXPECT_EQ(Chained, crc32(Buf));
}

TEST(Crc32, MatchesBytewiseOnOneMegabyte) {
  const std::vector<uint8_t> Buf = randomBytes(1 << 20, 5);
  EXPECT_EQ(crc32(Buf), crc32Bytewise(Buf.data(), Buf.size()));
}

/// Reference encoder: one run at a time through the writer's own varint and
/// byte appends, sharing nothing with encodeBytes' in-place path.
void encodeBytesOracle(ByteWriter &W, const std::vector<uint8_t> &Data) {
  W.writeVarU64(Data.size());
  size_t I = 0;
  while (I < Data.size()) {
    const uint8_t B = Data[I];
    size_t Run = 1;
    while (I + Run < Data.size() && Data[I + Run] == B)
      ++Run;
    W.writeVarU64(Run);
    W.writeByte(B);
    I += Run;
  }
}

/// Words, digits and spaces: nearly every run is one byte long.
std::vector<uint8_t> textLikeBytes(size_t Size) {
  static const char *const Words[] = {"sparse", "record", "replay", "tick",
                                      "queue",  "thread", "demo",   "fence"};
  Prng Rng(7, 8);
  std::string Text;
  while (Text.size() < Size) {
    Text += Words[Rng.nextBelow(std::size(Words))];
    if (Rng.nextBelow(4) == 0)
      Text += std::to_string(Rng.nextBelow(100000));
    Text += Rng.nextBelow(9) == 0 ? '\n' : ' ';
  }
  Text.resize(Size);
  return std::vector<uint8_t>(Text.begin(), Text.end());
}

TEST(Rle, EncodeMatchesOracleAndRoundTrips) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> Inputs = {
      {"empty", {}}, {"one byte", {0x42}}};
  // Runs whose lengths straddle the one-, two- and three-byte varints.
  for (size_t Run : {127, 128, 129, 16383, 16384})
    Inputs.push_back({"run of " + std::to_string(Run),
                      std::vector<uint8_t>(Run, 0x5A)});
  std::vector<uint8_t> Mixed;
  for (size_t Run : {129, 1, 16384, 127, 2, 16383, 128})
    Mixed.insert(Mixed.end(), Run, static_cast<uint8_t>(Mixed.size()));
  Inputs.push_back({"mixed runs", Mixed});
  std::vector<uint8_t> Alternating(4099);
  for (size_t I = 0; I != Alternating.size(); ++I)
    Alternating[I] = I & 1 ? 0x00 : 0xFF;
  Inputs.push_back({"alternating", Alternating});
  Inputs.push_back({"random", randomBytes(65537, 6)});
  Inputs.push_back({"text-like", textLikeBytes(65537)});

  for (const auto &[Name, Data] : Inputs) {
    // A prefix checks that the encoder appends after what the writer
    // already holds.
    ByteWriter Got, Want;
    Got.writeString("prefix");
    Want.writeString("prefix");
    rle::encodeBytes(Got, Data);
    encodeBytesOracle(Want, Data);
    ASSERT_EQ(Got.bytes(), Want.bytes()) << Name;

    ByteReader R(Got.take());
    std::string Prefix;
    ASSERT_TRUE(R.readString(Prefix));
    // A reused buffer longer than the result must not leak into it.
    std::vector<uint8_t> Out(Data.size() + 1000, 0xEE);
    ASSERT_TRUE(rle::decodeBytes(R, Out)) << Name;
    EXPECT_EQ(Out, Data) << Name;
    EXPECT_TRUE(R.atEnd()) << Name;
  }
}

TEST(Rle, DecodeRejectsHugeDeclaredLength) {
  for (uint64_t Total : {uint64_t(1) << 62, uint64_t(1) << 40}) {
    ByteWriter W;
    W.writeVarU64(Total);
    W.writeVarU64(1); // one 1-byte run, then the stream ends
    W.writeByte(7);
    ByteReader R(W.take());
    std::vector<uint8_t> Out;
    bool Ok = true;
    EXPECT_NO_THROW(Ok = rle::decodeBytes(R, Out)) << Total;
    EXPECT_FALSE(Ok) << Total;
  }
}

//===----------------------------------------------------------------------===//
// VectorClock laws
//===----------------------------------------------------------------------===//

TEST(VectorClock, DefaultIsBottom) {
  VectorClock A, B;
  EXPECT_TRUE(A.leq(B));
  EXPECT_TRUE(B.leq(A));
  EXPECT_EQ(A.get(0), 0u);
  EXPECT_EQ(A.get(99), 0u);
}

TEST(VectorClock, TickIncrementsOwnComponent) {
  VectorClock A;
  EXPECT_EQ(A.tick(3), 1u);
  EXPECT_EQ(A.tick(3), 2u);
  EXPECT_EQ(A.get(3), 2u);
  EXPECT_EQ(A.get(2), 0u);
}

TEST(VectorClock, JoinIsLeastUpperBound) {
  VectorClock A, B;
  A.set(0, 5);
  A.set(1, 1);
  B.set(1, 7);
  B.set(2, 2);
  VectorClock J = A;
  J.join(B);
  // Upper bound of both...
  EXPECT_TRUE(A.leq(J));
  EXPECT_TRUE(B.leq(J));
  // ...and pointwise exact.
  EXPECT_EQ(J.get(0), 5u);
  EXPECT_EQ(J.get(1), 7u);
  EXPECT_EQ(J.get(2), 2u);
}

TEST(VectorClock, LeqIsPartialOrder) {
  VectorClock A, B;
  A.set(0, 1);
  B.set(1, 1);
  // Incomparable.
  EXPECT_FALSE(A.leq(B));
  EXPECT_FALSE(B.leq(A));
  // Reflexive and antisymmetric via ==.
  EXPECT_TRUE(A.leq(A));
  VectorClock C = A;
  EXPECT_TRUE(A.leq(C) && C.leq(A));
  EXPECT_TRUE(A == C);
}

TEST(VectorClock, CoversMatchesComponent) {
  VectorClock A;
  A.set(2, 10);
  EXPECT_TRUE(A.covers(2, 10));
  EXPECT_TRUE(A.covers(2, 9));
  EXPECT_FALSE(A.covers(2, 11));
  EXPECT_TRUE(A.covers(5, 0)); // epoch 0 is always covered
  EXPECT_FALSE(A.covers(5, 1));
}

TEST(VectorClock, JoinIsCommutativeAndIdempotent) {
  Prng Rng(21, 22);
  for (int Trial = 0; Trial != 50; ++Trial) {
    VectorClock A, B;
    for (Tid T = 0; T != 6; ++T) {
      A.set(T, Rng.nextBelow(10));
      B.set(T, Rng.nextBelow(10));
    }
    VectorClock AB = A, BA = B;
    AB.join(B);
    BA.join(A);
    EXPECT_TRUE(AB == BA);
    VectorClock AA = AB;
    AA.join(AB);
    EXPECT_TRUE(AA == AB);
  }
}

//===----------------------------------------------------------------------===//
// Demo container
//===----------------------------------------------------------------------===//

TEST(Demo, StreamNamesMatchPaper) {
  EXPECT_STREQ(streamName(StreamKind::Meta), "META");
  EXPECT_STREQ(streamName(StreamKind::Queue), "QUEUE");
  EXPECT_STREQ(streamName(StreamKind::Signal), "SIGNAL");
  EXPECT_STREQ(streamName(StreamKind::Syscall), "SYSCALL");
  EXPECT_STREQ(streamName(StreamKind::Async), "ASYNC");
}

TEST(Demo, DiskRoundTrip) {
  Demo D;
  D.setStream(StreamKind::Queue, {1, 2, 3});
  D.setStream(StreamKind::Syscall, std::vector<uint8_t>(1000, 0x5A));
  const std::string Dir = "/tmp/tsr-demo-test";
  std::string Error;
  ASSERT_TRUE(D.saveToDirectory(Dir, Error)) << Error;
  Demo Loaded;
  ASSERT_TRUE(Loaded.loadFromDirectory(Dir, Error)) << Error;
  EXPECT_TRUE(Loaded == D);
  EXPECT_EQ(Loaded.totalSize(), D.totalSize());
  std::filesystem::remove_all(Dir);
}

TEST(Demo, MissingStreamFilesLoadAsEmpty) {
  Demo D;
  D.setStream(StreamKind::Queue, {9});
  const std::string Dir = "/tmp/tsr-demo-test2";
  std::string Error;
  ASSERT_TRUE(D.saveToDirectory(Dir, Error)) << Error;
  std::filesystem::remove(Dir + "/SIGNAL");
  Demo Loaded;
  ASSERT_TRUE(Loaded.loadFromDirectory(Dir, Error)) << Error;
  EXPECT_EQ(Loaded.streamSize(StreamKind::Queue), 1u);
  EXPECT_EQ(Loaded.streamSize(StreamKind::Signal), 0u);
  std::filesystem::remove_all(Dir);
}

TEST(Demo, LoadFromMissingDirectoryFails) {
  Demo D;
  std::string Error;
  EXPECT_FALSE(D.loadFromDirectory("/tmp/tsr-no-such-dir-xyz", Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// SampleStats
//===----------------------------------------------------------------------===//

TEST(Stats, MeanAndStddev) {
  SampleStats S;
  for (double V : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(V);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.stddev(), 2.138, 0.01); // sample stddev (n-1)
  EXPECT_NEAR(S.cv(), 0.4276, 0.01);
}

TEST(Stats, QuantilesOnKnownData) {
  SampleStats S;
  for (int I = 1; I <= 100; ++I)
    S.add(I);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 100.0);
  EXPECT_NEAR(S.median(), 50.5, 1e-9);
  EXPECT_NEAR(S.quantile(0.25), 25.75, 1e-9);
  EXPECT_NEAR(S.quantile(0.75), 75.25, 1e-9);
}

TEST(Stats, EmptyAndSingleton) {
  SampleStats S;
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.stddev(), 0.0);
  EXPECT_EQ(S.median(), 0.0);
  S.add(3.5);
  EXPECT_DOUBLE_EQ(S.mean(), 3.5);
  EXPECT_EQ(S.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(S.quantile(0.9), 3.5);
}

TEST(Stats, AddAfterQuantileQuery) {
  SampleStats S;
  S.add(5);
  EXPECT_DOUBLE_EQ(S.median(), 5.0);
  S.add(1);
  S.add(9);
  EXPECT_DOUBLE_EQ(S.median(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
}

//===----------------------------------------------------------------------===//
// Diag
//===----------------------------------------------------------------------===//

TEST(Diag, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%s", 5, "abc"), "x=5 y=abc");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(Diag, QuietWarningsTogglesAndRestores) {
  const bool Was = quietWarnings(true);
  EXPECT_EQ(quietWarnings(Was), true);
}

} // namespace
