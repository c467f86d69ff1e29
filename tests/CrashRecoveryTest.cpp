//===-- tests/CrashRecoveryTest.cpp - Crash-consistent recording tests ----===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// The crash-consistency contract, tested end to end: a recording session
// killed at an arbitrary moment (SIGKILL from outside, SIGSEGV from
// within) leaves a demo directory that `Demo::salvageDirectory` repairs
// to a consistent prefix, and the salvaged demo replays deterministically
// up to its tick frontier, finishing free-run with a structured
// TruncatedDemo soft report. Also covers the clean chunked round-trip and
// the rejection of demos written in another format version.
//
// The kill matrix forks real child processes: each child records pbzip
// (or litmus) with incremental flushing, alone or as the one session of a
// SessionPool, while the parent kills it (or it kills itself) after a
// varied delay.
//
//===----------------------------------------------------------------------===//

#include "apps/litmus/Litmus.h"
#include "apps/pbzip/Pbzip.h"
#include "runtime/SessionPool.h"
#include "runtime/Tsr.h"
#include "support/DemoWriter.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace tsr;

namespace {

SessionConfig fixedSeeds(SessionConfig C) {
  C.Seed0 = 41;
  C.Seed1 = 42;
  C.Env.Seed0 = 43;
  C.Env.Seed1 = 44;
  C.LivenessIntervalMs = 0;
  return C;
}

pbzip::PbzipConfig workloadConfig() {
  pbzip::PbzipConfig PC;
  PC.Threads = 3;
  PC.BlockSize = 512;
  return PC;
}

std::vector<uint8_t> workloadInput(int Repeats) {
  std::vector<uint8_t> Input;
  for (int I = 0; I != Repeats; ++I) {
    const std::string Chunk =
        "the quick brown fox " + std::to_string(I % 17) + " ";
    Input.insert(Input.end(), Chunk.begin(), Chunk.end());
  }
  return Input;
}

/// Which program the crashed recording captured. Litmus exercises pure
/// scheduling (QUEUE-heavy demos); pbzip adds file syscalls (SYSCALL
/// frontier must cross-trim against QUEUE).
enum class Workload { Pbzip, Litmus };

/// Who drives the crashed recording: a Session of its own, or a one-
/// session SessionPool recording under a DemoRoot.
enum class Recorder { Solo, Pool };

/// The litmus workload: the whole suite, over and over, inside one
/// session. \p Repeats scales the run long enough to kill mid-flight.
void runLitmusRounds(int Repeats) {
  for (int Round = 0; Round != Repeats; ++Round)
    for (const litmus::LitmusTest &T : litmus::suite())
      T.Body();
}

std::string freshDir(const std::string &Tag) {
  const std::string Dir = ::testing::TempDir() + "tsr-crash-" + Tag + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Records workload \p W with incremental flushing into \p Dir. Under
/// Recorder::Pool the session runs inside a SessionPool whose DemoRoot is
/// \p Dir's parent and whose spec is named after \p Dir's last component.
/// Never returns: _exit(0) on completion (a crash may kill it earlier).
/// With \p SegvAfterMs >= 0, an uncontrolled watchdog thread raises
/// SIGSEGV mid-run, exercising the fatal-signal emergency flush.
[[noreturn]] void childRecord(const std::string &Dir, Workload W,
                              int Repeats, int SegvAfterMs, Recorder By) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(
      StrategyKind::Queue, Mode::Record, RecordPolicy::full()));
  C.Flush.Directory = Dir;
  C.Flush.EveryTicks = 4;
  const pbzip::PbzipConfig PC = workloadConfig();
  auto Setup = [&PC, W, Repeats, SegvAfterMs](Session &S) {
    if (W == Workload::Pbzip)
      S.env().putFile(PC.InputPath, workloadInput(Repeats));
    if (SegvAfterMs >= 0)
      std::thread([SegvAfterMs] {
        std::this_thread::sleep_for(std::chrono::milliseconds(SegvAfterMs));
        ::raise(SIGSEGV);
      }).detach();
  };
  auto Body = [&PC, W, Repeats] {
    if (W == Workload::Pbzip)
      pbzip::compressFile(PC);
    else
      runLitmusRounds(Repeats);
  };
  if (By == Recorder::Pool) {
    const std::filesystem::path P(Dir);
    SessionPool::Options PO;
    PO.DemoRoot = P.parent_path().string();
    PO.FlushEveryTicks = C.Flush.EveryTicks;
    PO.Concurrency = 1;
    SessionPool Pool(PO);
    Pool.submit({P.filename().string(), C, Setup, Body});
    Pool.runAll();
  } else {
    Session S(C);
    Setup(S);
    S.run(Body);
  }
  ::_exit(0);
}

/// Replays \p D against the same workload and configuration the child
/// recorded under.
RunReport replayOnce(const Demo &D, Workload W, int Repeats) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(
      StrategyKind::Queue, Mode::Replay, RecordPolicy::full()));
  C.ReplayDemo = &D;
  Session S(C);
  const pbzip::PbzipConfig PC = workloadConfig();
  if (W == Workload::Pbzip)
    S.env().putFile(PC.InputPath, workloadInput(Repeats));
  RunReport R;
  R = S.run([&PC, W, Repeats] {
    if (W == Workload::Pbzip)
      pbzip::compressFile(PC);
    else
      runLitmusRounds(Repeats);
  });
  return R;
}

/// One kill-matrix cell: record in a forked child, kill it, salvage,
/// replay twice, check the replays agree. Returns false if the child died
/// before anything salvageable hit the disk (tolerated: the contract is
/// "never a corrupt demo", not "always a demo").
void runKillCell(const std::string &Tag, Workload W, int DelayMs,
                 bool SelfSegv, int Repeats, Recorder By = Recorder::Solo) {
  SCOPED_TRACE(Tag + " delay=" + std::to_string(DelayMs) +
               (SelfSegv ? " segv" : " sigkill"));
  const std::string Dir = freshDir(Tag + std::to_string(DelayMs));
  const pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) // never returns
    childRecord(Dir, W, Repeats, SelfSegv ? DelayMs : -1, By);

  if (!SelfSegv) {
    // Wait until the live writer has created every stream file, then let
    // the recording run for the cell's delay before killing it cold.
    const std::string LastFile =
        Dir + "/" + streamName(StreamKind::Async);
    for (int I = 0; I != 5000 && !std::filesystem::exists(LastFile); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    ::kill(Child, SIGKILL);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);

  Demo::SalvageReport Rep;
  std::string Error;
  if (!Demo::salvageDirectory(Dir, Rep, Error)) {
    // Only acceptable when the child died before its META chunk became
    // durable — anything else is real corruption.
    EXPECT_NE(Error.find("META"), std::string::npos) << Error;
    std::filesystem::remove_all(Dir);
    return;
  }

  // Post-repair the directory must verify clean.
  std::array<Demo::StreamCheck, NumStreamKinds> Checks;
  EXPECT_TRUE(Demo::verifyDirectory(Dir, Checks, Error)) << Error;

  Demo D;
  ASSERT_TRUE(D.loadFromDirectory(Dir, Error)) << Error;
  const RunReport R1 = replayOnce(D, W, Repeats);
  const RunReport R2 = replayOnce(D, W, Repeats);

  // A salvaged prefix must never replay into a hard desync.
  EXPECT_NE(R1.Desync, DesyncKind::Hard) << R1.DesyncInfo.Message;
  if (D.truncated()) {
    // Structured truncation report, and the run completed free-running.
    EXPECT_EQ(R1.Desync, DesyncKind::Soft);
    EXPECT_EQ(R1.DesyncInfo.Reason, DesyncReason::TruncatedDemo);
    EXPECT_FALSE(R1.DesyncInfo.Message.empty());
  } else {
    EXPECT_EQ(R1.Desync, DesyncKind::None);
  }

  // The controlled prefix is deterministic: both replays consume the
  // demo identically and classify its end identically. (Totals like
  // Ticks or VirtualNs include the free-run tail, which is OS-scheduled
  // and legitimately varies.)
  EXPECT_EQ(R1.Desync, R2.Desync);
  EXPECT_EQ(R1.DesyncInfo.Reason, R2.DesyncInfo.Reason);
  EXPECT_EQ(R1.DesyncInfo.Tick, R2.DesyncInfo.Tick);
  EXPECT_EQ(R1.SyscallsReplayed, R2.SyscallsReplayed);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Kill matrix
//===----------------------------------------------------------------------===//

TEST(CrashRecovery, SigkillMidRecordMatrix) {
  for (int DelayMs : {1, 5, 15, 40})
    runKillCell("sigkill", Workload::Pbzip, DelayMs, /*SelfSegv=*/false,
                /*Repeats=*/4000);
}

TEST(CrashRecovery, SigsegvMidRecordMatrix) {
  for (int DelayMs : {2, 10, 30})
    runKillCell("sigsegv", Workload::Pbzip, DelayMs, /*SelfSegv=*/true,
                /*Repeats=*/4000);
}

TEST(CrashRecovery, SigkillMidLitmusRecordMatrix) {
  for (int DelayMs : {3, 12, 25})
    runKillCell("litmus", Workload::Litmus, DelayMs, /*SelfSegv=*/false,
                /*Repeats=*/40);
}

// A pooled session writes its streams exactly as a solo one does, so a
// kill or a fatal signal mid-pool leaves the same salvageable prefix.
TEST(CrashRecovery, SigkillMidPoolRecordMatrix) {
  for (int DelayMs : {1, 5, 15, 40})
    runKillCell("pool-sigkill", Workload::Pbzip, DelayMs, /*SelfSegv=*/false,
                /*Repeats=*/4000, Recorder::Pool);
}

TEST(CrashRecovery, SigsegvMidPoolRecordMatrix) {
  for (int DelayMs : {2, 10, 30})
    runKillCell("pool-sigsegv", Workload::Pbzip, DelayMs, /*SelfSegv=*/true,
                /*Repeats=*/4000, Recorder::Pool);
}

//===----------------------------------------------------------------------===//
// Clean chunked round-trip
//===----------------------------------------------------------------------===//

TEST(CrashRecovery, ChunkedCleanRunMatchesInMemoryDemo) {
  const std::string Dir = freshDir("clean");
  SessionConfig C = fixedSeeds(presets::tsan11rec(
      StrategyKind::Queue, Mode::Record, RecordPolicy::full()));
  C.Flush.Directory = Dir;
  C.Flush.EveryTicks = 4;
  Session S(C);
  const pbzip::PbzipConfig PC = workloadConfig();
  S.env().putFile(PC.InputPath, workloadInput(100));
  RunReport R = S.run([&PC] { pbzip::compressFile(PC); });
  EXPECT_GT(R.Sched.DemoFlushes, 1u); // the chunked path actually ran

  Demo FromDisk;
  std::string Error;
  ASSERT_TRUE(FromDisk.loadFromDirectory(Dir, Error)) << Error;
  EXPECT_FALSE(FromDisk.truncated());
  // The incrementally flushed demo is byte-identical to the in-memory
  // end-of-run serialisation.
  EXPECT_TRUE(FromDisk == R.RecordedDemo);

  const RunReport RR = replayOnce(FromDisk, Workload::Pbzip, 100);
  EXPECT_EQ(RR.Desync, DesyncKind::None) << RR.DesyncInfo.Message;
  EXPECT_EQ(RR.DesyncInfo.SoftResyncs, 0u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Demos of another format version are rejected by name
//===----------------------------------------------------------------------===//

TEST(CrashRecovery, LegacyV2DemoIsRejected) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(
      StrategyKind::Queue, Mode::Record, RecordPolicy::full()));
  Session S(C);
  const pbzip::PbzipConfig PC = workloadConfig();
  S.env().putFile(PC.InputPath, workloadInput(100));
  const RunReport R = S.run([&PC] { pbzip::compressFile(PC); });

  const std::string Dir = freshDir("v2");
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const StreamKind Kind = static_cast<StreamKind>(I);
    std::string Error;
    ASSERT_TRUE(R.RecordedDemo.saveToDirectory(Dir, Error)) << Error;
    // Header byte 4 is the demo format version; say 2.
    const std::string File = Dir + "/" + streamName(Kind);
    const int Fd = ::open(File.c_str(), O_WRONLY);
    ASSERT_GE(Fd, 0) << File;
    const uint8_t V2 = 2;
    ASSERT_EQ(::pwrite(Fd, &V2, 1, 4), 1);
    ::close(Fd);
    const std::string Named =
        std::string(streamName(Kind)) + " stream is demo format version 2";

    Demo D;
    Error.clear();
    EXPECT_FALSE(D.loadFromDirectory(Dir, Error));
    EXPECT_NE(Error.find(Named), std::string::npos) << Error;

    std::array<Demo::StreamCheck, NumStreamKinds> Checks;
    Error.clear();
    EXPECT_FALSE(Demo::verifyDirectory(Dir, Checks, Error));
    EXPECT_NE(Error.find(Named), std::string::npos) << Error;
    EXPECT_NE(Checks[I].Error.find(Named), std::string::npos)
        << Checks[I].Error;

    Demo::SalvageReport Rep;
    Error.clear();
    EXPECT_FALSE(Demo::salvageDirectory(Dir, Rep, Error));
    EXPECT_NE(Error.find(Named), std::string::npos) << Error;
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Writer short-write handling
//===----------------------------------------------------------------------===//

/// Reads everything currently buffered in \p Fd (which must be
/// non-blocking). Returns the bytes drained.
size_t drainPipe(int Fd) {
  size_t Total = 0;
  uint8_t Buf[4096];
  for (;;) {
    const ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Total += static_cast<size_t>(N);
  }
  return Total;
}

TEST(CrashRecovery, WriterShortWriteLatchesStreamDead) {
  // Drive appendChunk against a pipe, the one fd type that can produce
  // genuine short writes: once the pipe's free space is smaller than the
  // chunk, write(2) lands a prefix and then fails, tearing the frame
  // mid-chunk. The writer must notice, latch ioError, preserve the
  // caller's errno (the fatal-signal flush contract), and kill the
  // stream so nothing is ever appended after the torn frame.
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  ASSERT_EQ(::fcntl(P[0], F_SETFL, O_NONBLOCK), 0);
  ASSERT_EQ(::fcntl(P[1], F_SETFL, O_NONBLOCK), 0);

  ChunkedDemoWriter Writer;
  Writer.adoptStreamFdForTest(StreamKind::Queue, P[1]);

  // A small chunk fits the empty pipe: one intact frame comes out.
  const std::vector<uint8_t> Small(32, 0xAB);
  Writer.appendChunk(StreamKind::Queue, Small.data(), Small.size(), 1);
  EXPECT_FALSE(Writer.ioError());
  uint8_t Frame[Demo::ChunkHeaderSize + 32];
  ASSERT_EQ(::read(P[0], Frame, sizeof(Frame)),
            static_cast<ssize_t>(sizeof(Frame)));
  EXPECT_EQ(std::memcmp(Frame, Demo::ChunkMagic, 4), 0);

  // Fill the pipe to capacity, then free a sliver smaller than the next
  // chunk so its write is forced short.
  std::vector<uint8_t> Filler(1 << 16, 0xCD);
  while (::write(P[1], Filler.data(), Filler.size()) > 0) {
  }
  ASSERT_EQ(errno, EAGAIN);
  uint8_t Sliver[512];
  ASSERT_EQ(::read(P[0], Sliver, sizeof(Sliver)),
            static_cast<ssize_t>(sizeof(Sliver)));

  const std::vector<uint8_t> Big(1 << 16, 0xEF);
  errno = EBUSY; // stand-in for the interrupted code's errno
  Writer.appendChunk(StreamKind::Queue, Big.data(), Big.size(), 2);
  EXPECT_EQ(errno, EBUSY) << "appendChunk clobbered the caller's errno";
  EXPECT_TRUE(Writer.ioError());

  // The stream is dead: later appends are no-ops, and the writer closed
  // its end of the pipe — after draining the torn prefix the reader sees
  // EOF, which only happens when no write fd remains open.
  Writer.appendChunk(StreamKind::Queue, Small.data(), Small.size(), 3);
  while (drainPipe(P[0]) != 0) {
  }
  uint8_t Byte;
  EXPECT_EQ(::read(P[0], &Byte, 1), 0) << "write end still open";
  ::close(P[0]);
}

} // namespace
