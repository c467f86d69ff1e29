//===-- tests/DemoFormatTest.cpp - Golden bytes of the demo format -------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Pins the exact on-disk bytes of the demo format (v3) and the RECOVERY
// sidecar. Every other demo test compares a writer with its own reader,
// so a change that alters the bytes symmetrically on both sides would pass
// them; these tests fail on any byte that moves. The expected bytes are
// written out by hand from the layout documented in support/Demo.h:
//
//   stream header  "TSRS" | version 03 | kind | ten zero bytes
//   chunk frame    "TSRC" | payload length (u32 LE) | payload CRC-32 |
//                  frontier (u64 LE) | CRC-32 of the 20 bytes before it |
//                  payload
//   closing chunk  a frame with an empty payload at frontier ~0
//
//===----------------------------------------------------------------------===//

#include "support/Demo.h"
#include "support/DemoWriter.h"
#include "support/Recovery.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>
#include <vector>

using namespace tsr;

namespace {

std::vector<uint8_t> unhex(const std::string &Hex) {
  std::vector<uint8_t> Out;
  for (size_t I = 0; I + 1 < Hex.size(); I += 2)
    Out.push_back(static_cast<uint8_t>(std::stoul(Hex.substr(I, 2), nullptr,
                                                  16)));
  return Out;
}

std::string fileHex(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  const std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                                std::istreambuf_iterator<char>());
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (char C : Bytes) {
    const auto B = static_cast<uint8_t>(C);
    Out += Digits[B >> 4];
    Out += Digits[B & 15];
  }
  return Out;
}

std::string scratchDir(const char *Name) {
  const std::string Dir = "/tmp/tsr-demo-format-" + std::string(Name) + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  return Dir;
}

// One record of each kind, as stream payloads.
//
// META: "tsrdemo" (length-prefixed), format version 3, strategy queue (1),
// controlled, not weak memory, seeds 42 and 300, policy hash 0x1234, no
// fault plan.
const char *const MetaPayload = "0774737264656d6f" "03" "010100" "2a" "ac02"
                                "b424" "00";
// QUEUE: one run of three ticks by thread 1.
const char *const QueuePayload = "03" "01";
// SIGNAL: thread 1 receives signal 10 at tick 200.
const char *const SignalPayload = "01" "c801" "0a";
// SYSCALL: kind 2 (recv), ret 3 (zigzag 6), errno 0, out-buffer "aab"
// run-length coded as 3 bytes = 2 x 'a', 1 x 'b'.
const char *const SyscallPayload = "02" "06" "00" "03" "0261" "0162";
// ASYNC: a signal wakeup (1) of thread 2 at tick 7.
const char *const AsyncPayload = "07" "01" "02";

const char *const ClosingChunk = "54535243" "00000000" "00000000"
                                 "ffffffffffffffff" "92535ab2";

Demo oneRecordOfEachKind() {
  Demo D;
  D.setStream(StreamKind::Meta, unhex(MetaPayload));
  D.setStream(StreamKind::Queue, unhex(QueuePayload));
  D.setStream(StreamKind::Signal, unhex(SignalPayload));
  D.setStream(StreamKind::Syscall, unhex(SyscallPayload));
  D.setStream(StreamKind::Async, unhex(AsyncPayload));
  return D;
}

TEST(DemoFormat, CompleteDemoSavesGoldenBytes) {
  const std::string Dir = scratchDir("complete");
  std::string Error;
  ASSERT_TRUE(oneRecordOfEachKind().saveToDirectory(Dir, Error)) << Error;

  // Each stream: header, one data chunk at frontier 0, closing chunk.
  EXPECT_EQ(fileHex(Dir + "/META"),
            std::string("54535253" "03" "00" "00000000000000000000") +
                "54535243" "12000000" "dca23180" "0000000000000000"
                "b7da7886" + MetaPayload + ClosingChunk);
  EXPECT_EQ(fileHex(Dir + "/QUEUE"),
            std::string("54535253" "03" "01" "00000000000000000000") +
                "54535243" "02000000" "aa71f31d" "0000000000000000"
                "7235057a" + QueuePayload + ClosingChunk);
  EXPECT_EQ(fileHex(Dir + "/SIGNAL"),
            std::string("54535253" "03" "02" "00000000000000000000") +
                "54535243" "04000000" "dea78aff" "0000000000000000"
                "dac3aef7" + SignalPayload + ClosingChunk);
  EXPECT_EQ(fileHex(Dir + "/SYSCALL"),
            std::string("54535253" "03" "03" "00000000000000000000") +
                "54535243" "08000000" "57cfcc5a" "0000000000000000"
                "5a82627a" + SyscallPayload + ClosingChunk);
  EXPECT_EQ(fileHex(Dir + "/ASYNC"),
            std::string("54535253" "03" "04" "00000000000000000000") +
                "54535243" "03000000" "fa9f1b0d" "0000000000000000"
                "ba79a015" + AsyncPayload + ClosingChunk);
  std::filesystem::remove_all(Dir);
}

TEST(DemoFormat, TruncatedDemoSavesGoldenBytes) {
  const std::string Dir = scratchDir("truncated");
  Demo D = oneRecordOfEachKind();
  D.markTruncated(9);
  std::string Error;
  ASSERT_TRUE(D.saveToDirectory(Dir, Error)) << Error;

  // Every chunk sits at the truncation frontier 9. META is still closed;
  // the data streams are left open, so a load marks the demo truncated.
  EXPECT_EQ(fileHex(Dir + "/META"),
            std::string("54535253" "03" "00" "00000000000000000000") +
                "54535243" "12000000" "dca23180" "0900000000000000"
                "9cc13799" + MetaPayload + ClosingChunk);
  EXPECT_EQ(fileHex(Dir + "/QUEUE"),
            std::string("54535253" "03" "01" "00000000000000000000") +
                "54535243" "02000000" "aa71f31d" "0900000000000000"
                "592e4a65" + QueuePayload);
  EXPECT_EQ(fileHex(Dir + "/SIGNAL"),
            std::string("54535253" "03" "02" "00000000000000000000") +
                "54535243" "04000000" "dea78aff" "0900000000000000"
                "f1d8e1e8" + SignalPayload);
  EXPECT_EQ(fileHex(Dir + "/SYSCALL"),
            std::string("54535253" "03" "03" "00000000000000000000") +
                "54535243" "08000000" "57cfcc5a" "0900000000000000"
                "71992d65" + SyscallPayload);
  EXPECT_EQ(fileHex(Dir + "/ASYNC"),
            std::string("54535253" "03" "04" "00000000000000000000") +
                "54535243" "03000000" "fa9f1b0d" "0900000000000000"
                "9162ef0a" + AsyncPayload);

  Demo Loaded;
  ASSERT_TRUE(Loaded.loadFromDirectory(Dir, Error)) << Error;
  EXPECT_TRUE(Loaded.truncated());
  EXPECT_EQ(Loaded.frontier(), 9u);
  EXPECT_TRUE(Loaded == D);
  std::filesystem::remove_all(Dir);
}

TEST(DemoFormat, ChunkedWriterAppendsGoldenFrames) {
  const std::string Dir = scratchDir("writer");
  ChunkedDemoWriter W;
  std::string Error;
  ASSERT_TRUE(W.open(Dir, Error)) << Error;
  const std::vector<uint8_t> Payload = unhex(SyscallPayload);
  W.appendChunk(StreamKind::Syscall, Payload.data(), Payload.size(), 64);
  W.closeStream(StreamKind::Syscall);
  W.closeAll();
  EXPECT_FALSE(W.ioError());

  // The SYSCALL stream: header, one chunk at frontier 64, closing chunk.
  EXPECT_EQ(fileHex(Dir + "/SYSCALL"),
            std::string("54535253" "03" "03" "00000000000000000000") +
                "54535243" "08000000" "57cfcc5a" "4000000000000000"
                "b740ff53" + SyscallPayload + ClosingChunk);
  // A stream the run never flushed or closed is its bare header.
  EXPECT_EQ(fileHex(Dir + "/QUEUE"),
            "54535253" "03" "01" "00000000000000000000");
  std::filesystem::remove_all(Dir);
}

TEST(DemoFormat, RecoverySidecarSavesGoldenBytes) {
  const std::string Dir = scratchDir("sidecar");
  std::filesystem::create_directories(Dir);
  std::vector<RecoveryAction> Actions(2);
  Actions[0].Kind = RecoveryActionKind::SkipForward;
  Actions[0].Tick = 12;
  Actions[0].Thread = 1;
  Actions[0].Stream = StreamKind::Syscall;
  Actions[0].Count = 2;
  Actions[0].Detail = "skipped 2";
  Actions[1].Kind = RecoveryActionKind::WatchdogWarn;
  Actions[1].Tick = 300;
  Actions[1].Thread = InvalidTid;
  Actions[1].Stream = StreamKind::Meta;
  Actions[1].Count = 5000;
  std::string Error;
  ASSERT_TRUE(saveRecoverySidecar(Dir, Actions, Error)) << Error;

  // "TSRV", version 1, two actions (kind byte, tick, thread, stream
  // byte, count, length-prefixed detail), then the CRC-32 of everything
  // before it as a varint.
  EXPECT_EQ(fileHex(Dir + "/RECOVERY"),
            "54535256" "01" "02"
            "00" "0c" "01" "03" "02" "09736b69707065642032"
            "05" "ac02" "ffffffff0f" "00" "8827" "00"
            "f8c8db51");

  RecoverySidecarInfo Info;
  ASSERT_TRUE(loadRecoverySidecar(Dir, Info));
  EXPECT_TRUE(Info.Valid) << Info.Error;
  ASSERT_EQ(Info.Actions.size(), 2u);
  EXPECT_EQ(Info.Actions[1].Thread, InvalidTid);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// The record codecs produce and accept exactly the payloads above
//===----------------------------------------------------------------------===//

TEST(DemoFormat, RecordCodecsEncodeGoldenPayloads) {
  MetaRecord M;
  M.FormatVersion = Demo::FormatVersion;
  M.Strategy = 1;
  M.Controlled = true;
  M.WeakMemory = false;
  M.Seed0 = 42;
  M.Seed1 = 300;
  M.PolicyHash = 0x1234;
  ByteWriter W;
  encodeMeta(W, M);
  EXPECT_EQ(W.take(), unhex(MetaPayload));

  encodeSignal(W, {1, 200, 10});
  EXPECT_EQ(W.take(), unhex(SignalPayload));

  encodeSyscall(W, {2, 3, 0}, {'a', 'a', 'b'});
  EXPECT_EQ(W.take(), unhex(SyscallPayload));

  encodeAsync(W, {7, AsyncEventKind::SignalWakeup, 2});
  EXPECT_EQ(W.take(), unhex(AsyncPayload));
}

TEST(DemoFormat, RecordCodecsDecodeGoldenPayloads) {
  MetaRecord M;
  ASSERT_EQ(decodeMeta(unhex(MetaPayload), M), MetaField::End);
  EXPECT_EQ(M.FormatVersion, 3u);
  EXPECT_EQ(M.Strategy, 1u);
  EXPECT_TRUE(M.Controlled);
  EXPECT_FALSE(M.WeakMemory);
  EXPECT_EQ(M.Seed0, 42u);
  EXPECT_EQ(M.Seed1, 300u);
  EXPECT_EQ(M.PolicyHash, 0x1234u);
  EXPECT_EQ(M.FaultPlanHash, 0u);

  std::vector<SignalRecord> Signals;
  EXPECT_EQ(decodeSignals(unhex(SignalPayload), Signals), 4u);
  ASSERT_EQ(Signals.size(), 1u);
  EXPECT_EQ(Signals[0].Thread, 1u);
  EXPECT_EQ(Signals[0].Tick, 200u);
  EXPECT_EQ(Signals[0].Signo, 10u);

  std::vector<AsyncRecord> Asyncs;
  EXPECT_EQ(decodeAsyncs(unhex(AsyncPayload), Asyncs), 3u);
  ASSERT_EQ(Asyncs.size(), 1u);
  EXPECT_EQ(Asyncs[0].Tick, 7u);
  EXPECT_EQ(Asyncs[0].Kind, AsyncEventKind::SignalWakeup);
  EXPECT_EQ(Asyncs[0].Thread, 2u);

  ByteReader R(unhex(SyscallPayload));
  SyscallRecord S;
  std::vector<uint8_t> OutBuf;
  ASSERT_TRUE(decodeSyscallKind(R, S));
  ASSERT_TRUE(decodeSyscallBody(R, S, OutBuf));
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(S.Kind, 2u);
  EXPECT_EQ(S.Ret, 3);
  EXPECT_EQ(S.Err, 0u);
  EXPECT_EQ(OutBuf, (std::vector<uint8_t>{'a', 'a', 'b'}));
}

TEST(DemoFormat, DecodersReportWhereTheyStop) {
  // META names the first field it could not decode.
  MetaRecord M;
  EXPECT_EQ(decodeMeta({}, M), MetaField::Magic);
  EXPECT_EQ(decodeMeta(unhex("0774737264656d70"), M), MetaField::Magic);
  EXPECT_EQ(decodeMeta(unhex("0774737264656d6f"), M), MetaField::Version);
  EXPECT_EQ(decodeMeta(unhex("0774737264656d6f" "02" "0101"), M),
            MetaField::Body);
  EXPECT_EQ(M.FormatVersion, 2u);

  // SIGNAL and ASYNC keep the whole records and stop at the cut one.
  std::vector<SignalRecord> Signals;
  EXPECT_EQ(decodeSignals(unhex(std::string(SignalPayload) + "01c8"),
                          Signals),
            4u);
  EXPECT_EQ(Signals.size(), 1u);
  std::vector<AsyncRecord> Asyncs;
  EXPECT_EQ(decodeAsyncs(unhex(std::string(AsyncPayload) + "0701"), Asyncs),
            3u);
  EXPECT_EQ(Asyncs.size(), 1u);

  // SYSCALL: the reader shows where a short body stopped.
  ByteReader R(unhex("02" "06" "00" "03" "0261"));
  SyscallRecord S;
  std::vector<uint8_t> OutBuf;
  ASSERT_TRUE(decodeSyscallKind(R, S));
  EXPECT_FALSE(decodeSyscallBody(R, S, OutBuf));
  EXPECT_TRUE(R.atEnd());
  ByteReader Empty(std::vector<uint8_t>{});
  EXPECT_FALSE(decodeSyscallKind(Empty, S));
}

} // namespace
