//===-- bench/micro_sched.cpp - Runtime primitive microbenchmarks --------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// google-benchmark microbenchmarks for the runtime's primitives: the
// Wait()/Tick() critical-section turnaround, atomic-model operations,
// shadow-memory accesses, mutex round-trips, demo codec throughput (the
// SYSCALL out-buffer RLE and the chunk CRC-32) and PRNG draws. These
// quantify the constant factors behind the table benches.
//
//===----------------------------------------------------------------------===//

#include "apps/common/Util.h"
#include "runtime/Tsr.h"
#include "support/Crc32.h"
#include "support/Prng.h"
#include "support/Rle.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <iterator>
#include <string>

using namespace tsr;

namespace {

SessionConfig quietConfig(StrategyKind K) {
  SessionConfig C = presets::tsan11rec(K);
  C.Seed0 = 5;
  C.Seed1 = 6;
  C.Env.Seed0 = 7;
  C.Env.Seed1 = 8;
  C.LivenessIntervalMs = 0;
  return C;
}

/// Runs Fn(iterations) once inside a session and reports per-op time.
template <typename Fn>
void runInSession(benchmark::State &State, StrategyKind K, Fn Body) {
  for (auto _ : State) {
    State.PauseTiming();
    Session S(quietConfig(K));
    State.ResumeTiming();
    S.run([&] { Body(State.range(0)); });
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

void BM_AtomicLoadStore(benchmark::State &State) {
  runInSession(State, StrategyKind::Queue, [](int64_t N) {
    Atomic<int> A(0);
    for (int64_t I = 0; I != N; ++I) {
      A.store(static_cast<int>(I), std::memory_order_release);
      benchmark::DoNotOptimize(A.load(std::memory_order_acquire));
    }
  });
}
BENCHMARK(BM_AtomicLoadStore)->Arg(2000);

void BM_MutexRoundTrip(benchmark::State &State) {
  runInSession(State, StrategyKind::Queue, [](int64_t N) {
    Mutex M;
    for (int64_t I = 0; I != N; ++I) {
      M.lock();
      M.unlock();
    }
  });
}
BENCHMARK(BM_MutexRoundTrip)->Arg(2000);

void BM_PlainAccessShadow(benchmark::State &State) {
  runInSession(State, StrategyKind::Queue, [](int64_t N) {
    Var<int> V(0);
    for (int64_t I = 0; I != N; ++I) {
      V.set(static_cast<int>(I));
      benchmark::DoNotOptimize(V.get());
    }
  });
}
BENCHMARK(BM_PlainAccessShadow)->Arg(20000);

void BM_CriticalSectionHandoff(benchmark::State &State) {
  // Two threads alternating on an atomic: every operation transfers the
  // designation, so this measures the Wait/Tick handoff cost.
  runInSession(State, StrategyKind::Queue, [](int64_t N) {
    Atomic<int> Turn(0);
    Thread T = Thread::spawn([&] {
      for (int64_t I = 0; I != N; ++I)
        Turn.fetchAdd(1, std::memory_order_acq_rel);
    });
    for (int64_t I = 0; I != N; ++I)
      Turn.fetchAdd(1, std::memory_order_acq_rel);
    T.join();
  });
}
BENCHMARK(BM_CriticalSectionHandoff)->Arg(1000);

void BM_SyscallRecorded(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    SessionConfig C = quietConfig(StrategyKind::Queue);
    C.ExecMode = Mode::Record;
    C.Policy = RecordPolicy::httpd();
    Session S(C);
    State.ResumeTiming();
    S.run([&] {
      for (int64_t I = 0; I != State.range(0); ++I)
        benchmark::DoNotOptimize(sys::clockNs());
    });
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_SyscallRecorded)->Arg(2000);

/// \p Size bytes of seeded words, digits and spaces. Like the file blocks
/// pbzip's recorded reads return, nearly every run is one byte long.
std::vector<uint8_t> textLikeBytes(size_t Size) {
  static const char *const Words[] = {"sparse", "record", "replay", "tick",
                                      "queue",  "thread", "visible", "demo",
                                      "signal", "mutex",  "atomic", "fence"};
  Prng Rng(11, 12);
  std::vector<uint8_t> Data;
  while (Data.size() < Size) {
    const char *W = Words[Rng.nextBelow(std::size(Words))];
    Data.insert(Data.end(), W, W + std::strlen(W));
    if (Rng.nextBelow(5) == 0) {
      const std::string Num = std::to_string(Rng.nextBelow(100000));
      Data.insert(Data.end(), Num.begin(), Num.end());
    }
    Data.push_back(Rng.nextBelow(10) == 0 ? '\n' : ' ');
  }
  Data.resize(Size);
  return Data;
}

/// Arg 1 picks the input: 0 is runs of 13 equal bytes, 1 is text-like.
void BM_RleRoundTrip(benchmark::State &State) {
  const size_t Size = static_cast<size_t>(State.range(0));
  std::vector<uint8_t> Data;
  if (State.range(1) == 0) {
    Data.resize(Size);
    for (size_t I = 0; I != Size; ++I)
      Data[I] = static_cast<uint8_t>((I / 13) & 0xFF);
  } else {
    Data = textLikeBytes(Size);
  }
  for (auto _ : State) {
    ByteWriter W;
    rle::encodeBytes(W, Data);
    ByteReader R(W.take());
    std::vector<uint8_t> Out;
    benchmark::DoNotOptimize(rle::decodeBytes(R, Out));
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_RleRoundTrip)
    ->ArgNames({"bytes", "text"})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

/// CRC-32 over one pbzip-rr demo's worth of bytes (4.83 MB), the size
/// each of that workload's four CRC passes covers per iteration.
void BM_Crc32(benchmark::State &State) {
  std::vector<uint8_t> Data(static_cast<size_t>(State.range(0)));
  Prng Rng(13, 14);
  for (uint8_t &B : Data)
    B = static_cast<uint8_t>(Rng.next());
  for (auto _ : State)
    benchmark::DoNotOptimize(crc32(Data));
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4830000);

void BM_PrngDraw(benchmark::State &State) {
  Prng Rng(1, 2);
  for (auto _ : State)
    benchmark::DoNotOptimize(Rng.nextBelow(17));
}
BENCHMARK(BM_PrngDraw);

} // namespace

BENCHMARK_MAIN();
