//===-- tests/SessionTest.cpp - Session and API lifetime tests -----------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "support/DemoInspect.h"
#include "runtime/Tsr.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

using namespace tsr;

namespace {

SessionConfig fixedSeeds(SessionConfig C, uint64_t Salt = 0) {
  C.Seed0 = 71 + Salt;
  C.Seed1 = 72 + Salt;
  C.Env.Seed0 = 73 + Salt;
  C.Env.Seed1 = 74 + Salt;
  C.LivenessIntervalMs = 0;
  return C;
}

//===----------------------------------------------------------------------===//
// Lifetime & modes
//===----------------------------------------------------------------------===//

TEST(Session, CurrentIsNullOutsideControlledThreads) {
  EXPECT_EQ(Session::current(), nullptr);
  Session S(fixedSeeds(SessionConfig()));
  Session *Inside = nullptr;
  S.run([&] { Inside = Session::current(); });
  EXPECT_EQ(Inside, &S);
  EXPECT_EQ(Session::current(), nullptr);
}

TEST(Session, UncontrolledModeRunsEverything) {
  // Controlled=false models plain tsan11: all primitives must still work
  // under pure first-come-first-served mutual exclusion.
  SessionConfig C = fixedSeeds(presets::tsan11());
  Session S(C);
  int Result = 0;
  RunReport R = S.run([&] {
    Mutex M;
    CondVar Cv;
    Var<int> Ready(0);
    Atomic<int> Acc(0);
    Thread T = Thread::spawn([&] {
      Acc.fetchAdd(21, std::memory_order_acq_rel);
      LockGuard G(M);
      Ready.set(1);
      Cv.signal();
    });
    {
      UniqueLock L(M);
      Cv.wait(M, [&] { return Ready.get() == 1; });
    }
    T.join();
    Result = Acc.load() * 2;
  });
  EXPECT_EQ(Result, 42);
  EXPECT_GT(R.Sched.Ticks, 0u);
}

TEST(Session, RaceDetectionOffReportsNothing) {
  SessionConfig C = fixedSeeds(SessionConfig());
  C.RaceDetection = false;
  Session S(C);
  RunReport R = S.run([] {
    Var<int> X(0);
    Thread T = Thread::spawn([&] { X.set(1); });
    X.set(2);
    T.join();
  });
  EXPECT_TRUE(R.Races.empty());
}

TEST(Session, ReportCarriesSeedsAndTiming) {
  SessionConfig C = fixedSeeds(SessionConfig(), 5);
  Session S(C);
  RunReport R = S.run([] { sys::sleepMs(10); });
  EXPECT_EQ(R.Seed0, 76u);
  EXPECT_EQ(R.Seed1, 77u);
  EXPECT_GE(R.VirtualNs, 10000000u);
  EXPECT_GT(R.WallSeconds, 0.0);
}

TEST(Session, WatchdogKillsHungPrograms) {
  // A hung program: no visible ops, no progress, no exit — long past the
  // salvage deadline. (An infinite *visible* loop would tick forever and
  // never trip the watchdog.) The ladder salvages the run instead of
  // aborting the process. When the program finally exits, its last
  // visible op parks forever on the frozen designation; the session is
  // leaked because that detached thread still references it.
  SessionConfig C = fixedSeeds(SessionConfig());
  C.Watchdog.WarnAfterMs = 50;
  C.Watchdog.NudgeAfterMs = 100;
  C.Watchdog.SalvageAfterMs = 200;
  Session *S = new Session(C); // leaked: the parked thread outlives the test
  const RunReport R = S->run(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(1500)); });
  EXPECT_TRUE(R.StallSalvaged);
  EXPECT_EQ(R.Desync, DesyncKind::Hard);
  EXPECT_EQ(R.DesyncInfo.Reason, DesyncReason::WatchdogStall);
  EXPECT_EQ(R.Recovered.WatchdogSalvages, 1u);
}

/// Threads of this process, from /proc/self/task.
size_t osThreadCount() {
  size_t N = 0;
  for ([[maybe_unused]] const auto &E :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++N;
  return N;
}

TEST(Session, RunSpawnsNoHelperThreads) {
  // Default supervision: liveness rescheduling every 25 ms and the
  // watchdog ladder armed. The thread blocked in run() drives both, so
  // the only thread a run adds is the controlled main thread.
  SessionConfig C;
  C.Seed0 = 71;
  C.Seed1 = 72;
  ASSERT_EQ(C.LivenessIntervalMs, 25u);
  Session S(C);
  const size_t Before = osThreadCount();
  size_t Inside = 0;
  S.run([&Inside] { Inside = osThreadCount(); });
  EXPECT_EQ(Inside, Before + 1);
}

//===----------------------------------------------------------------------===//
// Object lifetime vs shadow state
//===----------------------------------------------------------------------===//

TEST(Session, StackReuseDoesNotFalselyRace) {
  // A Var destroyed and a new one constructed at the same address by a
  // different thread must not race: the destructor forgets the range.
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  RunReport R = S.run([] {
    // Sequential phases; each thread uses (very likely) the same stack
    // slot for its local Var.
    for (int Phase = 0; Phase != 4; ++Phase) {
      Thread T = Thread::spawn([] {
        Var<int> Local(0);
        Local.set(7);
        (void)Local.get();
      });
      T.join();
    }
  });
  EXPECT_TRUE(R.Races.empty());
}

TEST(Session, AtomicReuseAtSameAddressResets) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  int FirstLoad = -1, SecondLoad = -1;
  S.run([&] {
    alignas(8) unsigned char Storage[sizeof(Atomic<int>)];
    {
      Atomic<int> *A = new (Storage) Atomic<int>(5);
      A->store(17);
      FirstLoad = A->load();
      A->~Atomic<int>();
    }
    {
      Atomic<int> *B = new (Storage) Atomic<int>(99);
      SecondLoad = B->load(); // must see 99, not stale history
      B->~Atomic<int>();
    }
  });
  EXPECT_EQ(FirstLoad, 17);
  EXPECT_EQ(SecondLoad, 99);
}

TEST(Session, PlainHelpersCheckArbitraryStorage) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  RunReport R = S.run([&] {
    int Raw[4] = {};
    Thread T = Thread::spawn([&] { plainWrite(Raw[2], 5); });
    plainWrite(Raw[2], 6);
    T.join();
    const int Final = plainRead(Raw[2]); // racy: either write may win
    EXPECT_TRUE(Final == 5 || Final == 6);
    S.race().forgetRange(reinterpret_cast<uintptr_t>(Raw), sizeof(Raw));
  });
  EXPECT_FALSE(R.Races.empty());
}

TEST(Session, AtomicFenceIsAVisibleOp) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  RunReport R = S.run([] {
    atomicFence(std::memory_order_seq_cst);
    atomicFence(std::memory_order_acquire);
  });
  EXPECT_EQ(R.Sched.Ticks, 3u); // two fences + thread delete
  EXPECT_EQ(R.Atomics.Fences, 2u);
}

TEST(Session, ThreadMoveSemantics) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  S.run([] {
    Thread A = Thread::spawn([] {});
    Thread B = std::move(A);
    EXPECT_FALSE(A.joinable());
    EXPECT_TRUE(B.joinable());
    B.join();
    EXPECT_FALSE(B.joinable());
  });
}

//===----------------------------------------------------------------------===//
// Demo round trip through disk + inspector integration
//===----------------------------------------------------------------------===//

TEST(Session, DiskDemoRoundTripAndInspection) {
  const std::string Dir = "/tmp/tsr-session-demo";
  Demo Recorded;
  uint64_t RecValue = 0;
  {
    SessionConfig C = fixedSeeds(
        presets::tsan11rec(StrategyKind::Queue, Mode::Record,
                           RecordPolicy::httpd()),
        9);
    Session S(C);
    RunReport R = S.run([&] {
      Atomic<uint64_t> A(1);
      Thread T = Thread::spawn([&] { A.fetchAdd(41); });
      T.join();
      RecValue = A.load() + sys::clockNs() % 2;
    });
    Recorded = R.RecordedDemo;
    std::string Error;
    ASSERT_TRUE(Recorded.saveToDirectory(Dir, Error)) << Error;
  }

  // Inspect: META decodes with the session's configuration.
  Demo Loaded;
  std::string Error;
  ASSERT_TRUE(Loaded.loadFromDirectory(Dir, Error)) << Error;
  const DemoInfo Info = inspectDemo(Loaded);
  EXPECT_TRUE(Info.MetaValid);
  EXPECT_EQ(Info.Meta.Strategy, static_cast<unsigned>(StrategyKind::Queue));
  EXPECT_TRUE(Info.Meta.Controlled);
  EXPECT_TRUE(Info.Meta.WeakMemory);
  EXPECT_EQ(Info.Meta.Seed0, 80u);
  EXPECT_GT(Info.Schedule.size(), 3u);
  EXPECT_EQ(Info.Syscalls.size(), 1u); // the clock call
  EXPECT_TRUE(Info.Problems.empty());
  const std::string Report = formatDemoInfo(Info);
  EXPECT_NE(Report.find("strategy=queue"), std::string::npos);
  EXPECT_NE(Report.find("clock_gettime"), std::string::npos);

  // Replay from the loaded demo.
  SessionConfig C = fixedSeeds(
      presets::tsan11rec(StrategyKind::Queue, Mode::Replay,
                         RecordPolicy::httpd()),
      9);
  C.ReplayDemo = &Loaded;
  Session S(C);
  uint64_t RepValue = 0;
  RunReport R = S.run([&] {
    Atomic<uint64_t> A(1);
    Thread T = Thread::spawn([&] { A.fetchAdd(41); });
    T.join();
    RepValue = A.load() + sys::clockNs() % 2;
  });
  EXPECT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;
  EXPECT_EQ(RepValue, RecValue);
  std::filesystem::remove_all(Dir);
}

TEST(Session, SequentialSessionsAreIndependent) {
  for (int I = 0; I != 3; ++I) {
    SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Random),
                                 static_cast<uint64_t>(I));
    Session S(C);
    RunReport R = S.run([] {
      Atomic<int> A(0);
      Thread T = Thread::spawn([&] { A.fetchAdd(1); });
      T.join();
    });
    EXPECT_EQ(R.Desync, DesyncKind::None);
    EXPECT_TRUE(R.Races.empty());
  }
}

} // namespace
