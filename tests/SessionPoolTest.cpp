//===-- tests/SessionPoolTest.cpp - Multi-session pool tests --------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// The multi-session contract, tested end to end: N independent sessions
// record concurrently in one process, each into its own demo directory
// through its own chunked writer, and (a) a fleet-recorded demo is
// bit-identical to the same workload recorded solo, (b) every fleet demo
// replays cleanly, (c) the process-global state the pool depends on — the
// fatal-signal session registry, the parked-scheduler registry,
// per-thread TLS slots — is scoped per session and drained on teardown,
// including after in-pool deadlocks, and (d) a batch whose recordings
// would share a directory is refused before it starts.
//
//===----------------------------------------------------------------------===//

#include "apps/litmus/Litmus.h"
#include "apps/pbzip/Pbzip.h"
#include "runtime/SessionPool.h"
#include "runtime/Tsr.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <unistd.h>

using namespace tsr;

namespace {

SessionConfig fixedSeeds(SessionConfig C, uint64_t Salt = 0) {
  C.Seed0 = 41 + Salt;
  C.Seed1 = 42 + Salt * 7;
  C.Env.Seed0 = 43 + Salt * 13;
  C.Env.Seed1 = 44 + Salt * 31;
  C.LivenessIntervalMs = 0;
  return C;
}

pbzip::PbzipConfig pbzipConfig() {
  pbzip::PbzipConfig PC;
  PC.Threads = 3;
  PC.BlockSize = 256;
  return PC;
}

std::vector<uint8_t> pbzipInput(int Repeats) {
  std::vector<uint8_t> Input;
  for (int I = 0; I != Repeats; ++I) {
    const std::string Chunk = "fleet payload " + std::to_string(I % 23) + " ";
    Input.insert(Input.end(), Chunk.begin(), Chunk.end());
  }
  return Input;
}

std::string freshDir(const std::string &Tag) {
  const std::string Dir = ::testing::TempDir() + "tsr-pool-" + Tag + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  return Dir;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

/// Asserts the five stream files of \p DirA and \p DirB are byte-equal.
void expectStreamFilesIdentical(const std::string &DirA,
                                const std::string &DirB) {
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const std::string Name = streamName(static_cast<StreamKind>(I));
    const std::vector<uint8_t> A = readFile(DirA + "/" + Name);
    const std::vector<uint8_t> B = readFile(DirB + "/" + Name);
    EXPECT_FALSE(A.empty()) << DirA << "/" << Name;
    EXPECT_EQ(A, B) << Name << " differs between " << DirA << " and " << DirB;
  }
}

/// The ABBA deadlock from SchedTest, as a pool workload.
void abbaDeadlock() {
  Mutex A, B;
  Atomic<int> Step(0);
  Thread T = Thread::spawn([&] {
    B.lock();
    Step.store(1);
    while (Step.load() != 2) {
    }
    A.lock();
    A.unlock();
    B.unlock();
  });
  A.lock();
  while (Step.load() != 1) {
  }
  Step.store(2);
  B.lock();
  B.unlock();
  A.unlock();
  T.join();
}

//===----------------------------------------------------------------------===//
// Fleet-recorded demos are bit-identical to solo-recorded ones
//===----------------------------------------------------------------------===//

TEST(SessionPool, FleetRecordingMatchesSoloRecordingBitForBit) {
  // Random-strategy schedules are a pure function of the seeds (Queue
  // strategy records first-come-first-served grants, which are OS-timing
  // dependent by design), so a fleet recording that differs from a solo
  // recording in any byte would prove cross-session interference.
  const int Repeats = 120;
  const std::string SoloDir = freshDir("solo");
  const std::string FleetRoot = freshDir("fleetroot");

  // Solo: the session's own synchronous writer.
  RunReport Solo;
  {
    SessionConfig C = fixedSeeds(presets::tsan11rec(
        StrategyKind::Random, Mode::Record, RecordPolicy::full()));
    C.Flush.Directory = SoloDir;
    C.Flush.EveryTicks = 4;
    Session S(C);
    const pbzip::PbzipConfig PC = pbzipConfig();
    S.env().putFile(PC.InputPath, pbzipInput(Repeats));
    Solo = S.run([&PC] { pbzip::compressFile(PC); });
    ASSERT_FALSE(Solo.Deadlocked);
  }

  // Fleet: same seeds, same workload, recorded inside a pool.
  SessionPool::Options PO;
  PO.DemoRoot = FleetRoot;
  PO.FlushEveryTicks = 4;
  SessionPool Pool(PO);
  PoolSessionSpec Spec;
  Spec.Name = "pbzip";
  Spec.Config = fixedSeeds(presets::tsan11rec(StrategyKind::Random,
                                              Mode::Record,
                                              RecordPolicy::full()));
  Spec.Setup = [Repeats](Session &S) {
    S.env().putFile(pbzipConfig().InputPath, pbzipInput(Repeats));
  };
  Spec.Body = [] { pbzip::compressFile(pbzipConfig()); };
  Pool.submit(std::move(Spec));
  FleetReport Fleet = Pool.runAll();
  ASSERT_EQ(Fleet.SessionsRun, 1u);
  ASSERT_FALSE(Fleet.Sessions[0].Report.Deadlocked);

  // Same schedule, same demo: the in-memory recordings agree and the
  // on-disk stream files (headers, chunk framing, sentinels) are
  // byte-identical.
  EXPECT_TRUE(Fleet.Sessions[0].Report.RecordedDemo == Solo.RecordedDemo);
  expectStreamFilesIdentical(SoloDir, FleetRoot + "/pbzip");

  // And the fleet-recorded demo replays bit-exactly.
  Demo D;
  std::string Error;
  ASSERT_TRUE(D.loadFromDirectory(FleetRoot + "/pbzip", Error)) << Error;
  EXPECT_FALSE(D.truncated());
  SessionConfig RC = fixedSeeds(presets::tsan11rec(
      StrategyKind::Random, Mode::Replay, RecordPolicy::full()));
  RC.ReplayDemo = &D;
  Session RS(RC);
  const pbzip::PbzipConfig PC = pbzipConfig();
  RS.env().putFile(PC.InputPath, pbzipInput(Repeats));
  RunReport RR = RS.run([&PC] { pbzip::compressFile(PC); });
  EXPECT_EQ(RR.Desync, DesyncKind::None) << RR.DesyncInfo.Message;
  EXPECT_EQ(RR.DesyncInfo.SoftResyncs, 0u);

  if (!::testing::Test::HasFailure()) {
    std::filesystem::remove_all(SoloDir);
    std::filesystem::remove_all(FleetRoot);
  }
}

//===----------------------------------------------------------------------===//
// Concurrent fleet stress: pbzip + litmus mix, record then replay all
//===----------------------------------------------------------------------===//

TEST(SessionPool, ConcurrentFleetRecordsAndEveryDemoReplays) {
  const std::string Root = freshDir("stress");
  const size_t NumSessions = 12;
  const size_t BaselineParked = Session::parkedSchedulerCount();

  SessionPool::Options PO;
  PO.DemoRoot = Root;
  PO.Concurrency = 4;
  PO.FlushEveryTicks = 8;
  SessionPool Pool(PO);

  for (size_t I = 0; I != NumSessions; ++I) {
    PoolSessionSpec Spec;
    Spec.Config = fixedSeeds(presets::tsan11rec(StrategyKind::Queue,
                                                Mode::Record,
                                                RecordPolicy::full()),
                             I);
    if (I % 2 == 0) {
      Spec.Name = "pbzip-" + std::to_string(I);
      Spec.Setup = [](Session &S) {
        S.env().putFile(pbzipConfig().InputPath, pbzipInput(40));
      };
      Spec.Body = [] { pbzip::compressFile(pbzipConfig()); };
    } else {
      // Rotate through the litmus suite so the fleet mixes QUEUE-heavy
      // schedules with pbzip's SYSCALL-heavy ones.
      const auto &Suite = litmus::suite();
      Spec.Name = "litmus-" + std::to_string(I);
      Spec.Body = [Body = Suite[I % Suite.size()].Body] {
        for (int Round = 0; Round != 3; ++Round)
          Body();
      };
    }
    Pool.submit(std::move(Spec));
  }

  FleetReport Fleet = Pool.runAll();
  ASSERT_EQ(Fleet.SessionsRun, NumSessions);
  EXPECT_EQ(Fleet.Deadlocks, 0u);
  EXPECT_EQ(Fleet.StallSalvages, 0u);
  EXPECT_EQ(Fleet.HardDesyncs, 0u);
  EXPECT_EQ(Pool.zombieCount(), 0u);
  EXPECT_EQ(Session::parkedSchedulerCount(), BaselineParked);
  EXPECT_EQ(Fleet.Totals.counterOr("fleet.sessions"), NumSessions);
  // The rollup summed real per-session counters.
  EXPECT_GT(Fleet.Totals.counterOr("sched.ticks"), 0u);

  // Every fleet demo verifies, loads untruncated, and replays with zero
  // desync against the workload it recorded.
  for (size_t I = 0; I != NumSessions; ++I) {
    const PoolSessionResult &R = Fleet.Sessions[I];
    SCOPED_TRACE(R.Name);
    const std::string Dir = Root + "/" + R.Name;
    std::array<Demo::StreamCheck, NumStreamKinds> Checks;
    std::string Error;
    ASSERT_TRUE(Demo::verifyDirectory(Dir, Checks, Error)) << Error;
    Demo D;
    ASSERT_TRUE(D.loadFromDirectory(Dir, Error)) << Error;
    EXPECT_FALSE(D.truncated());
    EXPECT_TRUE(D == R.Report.RecordedDemo);

    SessionConfig RC = fixedSeeds(presets::tsan11rec(StrategyKind::Queue,
                                                     Mode::Replay,
                                                     RecordPolicy::full()),
                                  I);
    RC.ReplayDemo = &D;
    Session RS(RC);
    RunReport RR;
    if (I % 2 == 0) {
      const pbzip::PbzipConfig PC = pbzipConfig();
      RS.env().putFile(PC.InputPath, pbzipInput(40));
      RR = RS.run([&PC] { pbzip::compressFile(PC); });
    } else {
      const auto &Suite = litmus::suite();
      RR = RS.run([Body = Suite[I % Suite.size()].Body] {
        for (int Round = 0; Round != 3; ++Round)
          Body();
      });
    }
    EXPECT_EQ(RR.Desync, DesyncKind::None) << RR.DesyncInfo.Message;
  }
  std::filesystem::remove_all(Root);
}

//===----------------------------------------------------------------------===//
// Replay mode inside the pool
//===----------------------------------------------------------------------===//

TEST(SessionPool, PoolReplaysItsOwnRecordings) {
  const std::string Root = freshDir("replay");
  SessionPool::Options PO;
  PO.DemoRoot = Root;
  SessionPool Pool(PO);
  PoolSessionSpec Rec;
  Rec.Name = "rec";
  Rec.Config = fixedSeeds(presets::tsan11rec(StrategyKind::Queue, Mode::Record,
                                             RecordPolicy::full()));
  Rec.Setup = [](Session &S) {
    S.env().putFile(pbzipConfig().InputPath, pbzipInput(30));
  };
  Rec.Body = [] { pbzip::compressFile(pbzipConfig()); };
  Pool.submit(std::move(Rec));
  FleetReport RecFleet = Pool.runAll();
  ASSERT_EQ(RecFleet.SessionsRun, 1u);
  ASSERT_EQ(RecFleet.CleanReplays, 0u); // record mode does not count

  // Same pool object, second batch: replay what the first batch recorded.
  Demo D;
  std::string Error;
  ASSERT_TRUE(D.loadFromDirectory(Root + "/rec", Error)) << Error;
  PoolSessionSpec Rep;
  Rep.Name = "rep";
  Rep.Config = fixedSeeds(presets::tsan11rec(StrategyKind::Queue, Mode::Replay,
                                             RecordPolicy::full()));
  Rep.Config.ReplayDemo = &D;
  Rep.Setup = [](Session &S) {
    S.env().putFile(pbzipConfig().InputPath, pbzipInput(30));
  };
  Rep.Body = [] { pbzip::compressFile(pbzipConfig()); };
  Pool.submit(std::move(Rep));
  FleetReport RepFleet = Pool.runAll();
  ASSERT_EQ(RepFleet.SessionsRun, 1u);
  EXPECT_EQ(RepFleet.Sessions[0].Report.Desync, DesyncKind::None)
      << RepFleet.Sessions[0].Report.DesyncInfo.Message;
  EXPECT_TRUE(RepFleet.Sessions[0].Replay);
  EXPECT_EQ(RepFleet.CleanReplays, 1u);
  EXPECT_EQ(RepFleet.HardDesyncs, 0u);
  std::filesystem::remove_all(Root);
}

//===----------------------------------------------------------------------===//
// Fatal-signal session registry: per-session registration, process-wide
// handlers
//===----------------------------------------------------------------------===//

TEST(SessionPool, EmergencyRegistryTracksEveryLiveSession) {
  const std::string Root = freshDir("sig");
  const size_t Baseline = Session::liveEmergencySessionCountForTest();

  // Two sessions run concurrently (Concurrency = 2); each body waits for
  // the other through an uncontrolled rendezvous, then samples the
  // emergency-session registry: both must be registered at once.
  std::atomic<int> Arrived{0};
  std::atomic<size_t> SeenAtRendezvous{0};
  SessionPool::Options PO;
  PO.DemoRoot = Root;
  PO.Concurrency = 2;
  SessionPool Pool(PO);
  for (int I = 0; I != 2; ++I) {
    PoolSessionSpec Spec;
    Spec.Name = "sig-" + std::to_string(I);
    Spec.Config = fixedSeeds(presets::tsan11rec(StrategyKind::Queue,
                                                Mode::Record,
                                                RecordPolicy::full()),
                             I);
    Spec.Body = [&Arrived, &SeenAtRendezvous] {
      Arrived.fetch_add(1);
      while (Arrived.load() < 2)
        std::this_thread::yield();
      size_t Seen = Session::liveEmergencySessionCountForTest();
      size_t Prev = SeenAtRendezvous.load();
      while (Prev < Seen &&
             !SeenAtRendezvous.compare_exchange_weak(Prev, Seen)) {
      }
      litmus::barrier();
    };
    Pool.submit(std::move(Spec));
  }
  FleetReport Fleet = Pool.runAll();
  ASSERT_EQ(Fleet.SessionsRun, 2u);
  EXPECT_EQ(Fleet.Deadlocks, 0u);
  EXPECT_EQ(SeenAtRendezvous.load(), Baseline + 2);
  // Teardown unregistered both; the process-wide handlers uninstalled
  // with the last one.
  EXPECT_EQ(Session::liveEmergencySessionCountForTest(), Baseline);
  std::filesystem::remove_all(Root);
}

//===----------------------------------------------------------------------===//
// Salvaged sessions: stragglers retire, registries drain
//===----------------------------------------------------------------------===//

TEST(SessionPool, DeadlockedSessionRetiresStragglersAndDrainsRegistries) {
  const std::string Root = freshDir("dead");
  const size_t BaselineParked = Session::parkedSchedulerCount();

  SessionPool::Options PO;
  PO.DemoRoot = Root;
  PO.RetireTimeoutMs = 10000;
  SessionPool Pool(PO);
  for (int I = 0; I != 2; ++I) {
    PoolSessionSpec Spec;
    Spec.Name = std::string(I == 0 ? "deadlock" : "clean");
    Spec.Config = fixedSeeds(presets::tsan11rec(StrategyKind::Queue,
                                                Mode::Record,
                                                RecordPolicy::full()),
                             I);
    Spec.Body = I == 0 ? std::function<void()>(abbaDeadlock)
                       : std::function<void()>([] { litmus::msQueue(); });
    Pool.submit(std::move(Spec));
  }
  FleetReport Fleet = Pool.runAll();
  ASSERT_EQ(Fleet.SessionsRun, 2u);
  EXPECT_EQ(Fleet.Deadlocks, 1u);

  // The deadlocked session's parked threads were woken, unwound with
  // ControlledThreadRetire, and fully exited inside runAll; its parked
  // scheduler was drained on the spot. Nothing leaks per salvage.
  EXPECT_EQ(Fleet.ZombiesRetired, 1u);
  EXPECT_EQ(Fleet.ZombiesLeaked, 0u);
  EXPECT_EQ(Pool.zombieCount(), 0u);
  EXPECT_EQ(Session::parkedSchedulerCount(), BaselineParked);

  for (const PoolSessionResult &R : Fleet.Sessions) {
    if (R.Name == "deadlock") {
      EXPECT_TRUE(R.Salvaged);
      EXPECT_TRUE(R.Report.Deadlocked);
    } else {
      EXPECT_FALSE(R.Salvaged);
      EXPECT_FALSE(R.Report.Deadlocked);
    }
  }
  std::filesystem::remove_all(Root);
}

TEST(SessionPool, SalvagedWithoutPoolParksSchedulerUntilDrained) {
  // The raw-Session contract the pool builds on: a salvaged run whose
  // stragglers are retired by hand drains from the parked registry.
  const size_t BaselineParked = Session::parkedSchedulerCount();
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue,
                                                  Mode::Record,
                                                  RecordPolicy::full()),
                               99);
  auto S = std::make_unique<Session>(C);
  RunReport R = S->run(abbaDeadlock);
  ASSERT_TRUE(R.Deadlocked);
  // The salvaged scheduler parked; stragglers still live.
  EXPECT_EQ(Session::parkedSchedulerCount(), BaselineParked + 1);
  EXPECT_GT(S->liveStragglers(), 0u);
  EXPECT_EQ(Session::drainParkedSchedulers(), 0u); // threads still alive

  S->beginStragglerRetire();
  ASSERT_TRUE(S->waitStragglersRetired(10000));
  EXPECT_EQ(S->liveStragglers(), 0u);
  EXPECT_GE(Session::drainParkedSchedulers(), 1u);
  EXPECT_EQ(Session::parkedSchedulerCount(), BaselineParked);
  S.reset();
}

//===----------------------------------------------------------------------===//
// Recordings that would share a directory are refused before any starts
//===----------------------------------------------------------------------===//

/// Runs one batch of single-atomic-store sessions: one spec per
/// (name, mode, own Flush.Directory) triple, under \p DemoRoot.
FleetReport runBatch(
    const std::string &DemoRoot,
    const std::vector<std::tuple<std::string, Mode, std::string>> &Specs) {
  SessionPool::Options PO;
  PO.DemoRoot = DemoRoot;
  PO.Concurrency = 2;
  SessionPool Pool(PO);
  for (const auto &[Name, M, Dir] : Specs) {
    PoolSessionSpec Spec;
    Spec.Name = Name;
    Spec.Config = fixedSeeds(presets::tsan11rec(StrategyKind::Random, M,
                                                RecordPolicy::full()));
    Spec.Config.Flush.Directory = Dir;
    Spec.Body = [] {
      Atomic<int> X(0);
      X.store(1);
    };
    Pool.submit(std::move(Spec));
  }
  return Pool.runAll();
}

TEST(SessionPool, RecordingsThatShareADirectoryAreRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string Root = freshDir("dupdir");
  const Mode Rec = Mode::Record;

  // Two recordings under one name would interleave their chunks in the
  // same five files; the batch dies naming both specs.
  EXPECT_DEATH(runBatch(Root, {{"a", Rec, ""}, {"dup", Rec, ""},
                               {"dup", Rec, ""}}),
               "recording specs 1 \\('dup'\\) and 2 \\('dup'\\) both "
               "record into");

  // A name under DemoRoot is exactly one path component.
  for (const char *Bad : {"", ".", "..", "x/y"})
    EXPECT_DEATH(runBatch(Root, {{Bad, Rec, ""}}),
                 "recording spec 0 is named '.*', which is not one "
                 "directory under DemoRoot")
        << "name '" << Bad << "'";

  // Without a DemoRoot, specs that bring their own Flush.Directory count
  // too, however the shared directory is spelled.
  EXPECT_DEATH(runBatch("", {{"p", Rec, Root + "/own"},
                             {"q", Rec, Root + "/./own/"}}),
               "recording specs 0 \\('p'\\) and 1 \\('q'\\) both "
               "record into");

  // Only recordings own a directory: a free-running spec may share a
  // recording's name.
  const FleetReport Fleet =
      runBatch(Root, {{"dup", Rec, ""}, {"dup", Mode::Free, ""}});
  EXPECT_EQ(Fleet.SessionsRun, 2u);
  std::array<Demo::StreamCheck, NumStreamKinds> Checks;
  std::string Error;
  EXPECT_TRUE(Demo::verifyDirectory(Root + "/dup", Checks, Error)) << Error;
  std::filesystem::remove_all(Root);
}

} // namespace
