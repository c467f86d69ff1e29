//===-- race/AtomicModel.h - C++11 weak-memory atomic model ----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tsan11 fragment of the C++11 memory model (§2, building on Lidbury
/// & Donaldson, POPL 2017): every atomic location keeps a bounded buffer of
/// historical stores; a load may read any store that is not "hidden" — not
/// older than the latest store that happens-before the load, the thread's
/// last read from the location, or (for seq_cst operations) the latest
/// seq_cst store. Acquire loads join the releasing store's clock;
/// read-modify-writes read the newest store and continue its release
/// sequence; fences defer or publish clocks per the standard.
///
/// The *choice* among readable stores is resolved through an injected
/// choice function — the scheduler PRNG — so a recorded execution's weak
/// behaviours replay from the seeds alone (§4: "a PRNG is used, seeded by
/// two calls to rdtsc()").
///
/// All methods except the thread-safe statistics accessors must be called
/// from inside a scheduler critical section; the model relies on that
/// serialization instead of internal locking.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_RACE_ATOMICMODEL_H
#define TSR_RACE_ATOMICMODEL_H

#include "race/RaceDetector.h"
#include "support/VectorClock.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace tsr {

/// Read-modify-write operators.
enum class RmwOp : unsigned {
  Add = 0,
  Sub,
  And,
  Or,
  Xor,
  Exchange,
};

/// Atomic model configuration.
struct AtomicModelOptions {
  /// True: tsan11 weak-memory semantics (loads may read stale stores).
  /// False: sequential consistency — loads always read the newest store.
  /// Figure 1's race is detectable only when this is true.
  bool WeakMemory = true;

  /// Bound on retained stores per location; the oldest stores are pruned
  /// beyond this (slightly narrowing the readable window, as tsan11's
  /// fixed-size store buffers do).
  size_t MaxHistory = 128;
};

/// Counters exposed for tests and benchmarks.
struct AtomicModelStats {
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Rmws = 0;
  uint64_t Fences = 0;
  /// Loads that returned a store older than the newest — observed weak
  /// behaviour.
  uint64_t StaleReads = 0;
};

/// Per-location store-buffer model of C++11 atomics.
class AtomicModel {
public:
  /// Resolves an n-way nondeterministic choice; wired to the scheduler
  /// PRNG by the session.
  using ChoiceFn = std::function<uint64_t(uint64_t Bound)>;

  AtomicModel(RaceDetector &RD, ChoiceFn Choice,
              AtomicModelOptions Opts = {});

  AtomicModel(const AtomicModel &) = delete;
  AtomicModel &operator=(const AtomicModel &) = delete;

  /// Non-atomically initialises a location (std::atomic construction).
  void init(uintptr_t Addr, uint64_t Value);

  /// Atomic load; returns the chosen store's value.
  uint64_t load(Tid T, uintptr_t Addr, std::memory_order MO, size_t Size);

  /// Atomic store.
  void store(Tid T, uintptr_t Addr, uint64_t Value, std::memory_order MO,
             size_t Size);

  /// Atomic read-modify-write; returns the previous value.
  uint64_t rmw(Tid T, uintptr_t Addr, RmwOp Op, uint64_t Operand,
               std::memory_order MO, size_t Size);

  /// Compare-and-swap. On failure \p Expected receives the observed value.
  bool cas(Tid T, uintptr_t Addr, uint64_t &Expected, uint64_t Desired,
           std::memory_order Success, std::memory_order Failure,
           size_t Size);

  /// Thread fence.
  void fence(Tid T, std::memory_order MO);

  /// Drops a destroyed location's history.
  void forget(uintptr_t Addr);

  AtomicModelStats statsSnapshot() const { return Stats; }

private:
  struct StoreRecord {
    uint64_t Value = 0;
    Tid Writer = 0;
    Epoch WriterEpoch = 0;
    /// Clock an acquire load of this store joins (empty when the store is
    /// not a release and no release fence/sequence applies).
    VectorClock ReleaseVC;
    bool SeqCst = false;
  };

  struct Location {
    std::vector<StoreRecord> History;
    uint64_t AbsBase = 0; ///< Absolute index of History[0].
    std::vector<uint64_t> LastReadAbsPlus1; ///< Per tid; 0 = never read.
    uint64_t LastScStoreAbsPlus1 = 0;

    uint64_t absLast() const { return AbsBase + History.size() - 1; }
    StoreRecord &at(uint64_t Abs) { return History[Abs - AbsBase]; }
  };

  struct PerThread {
    /// Clocks of relaxed-read stores, deferred until an acquire fence.
    VectorClock PendingAcquire;
    /// Clock captured by the last release fence (empty if none).
    VectorClock FenceRelease;
    bool HasFenceRelease = false;
  };

  Location &locationFor(uintptr_t Addr);
  PerThread &threadFor(Tid T);
  uint64_t readableLowerBound(Location &L, Tid T, bool SeqCstLoad);
  void applyAcquire(Tid T, const StoreRecord &S, std::memory_order MO);
  void pushStore(Location &L, Tid T, uint64_t Value, std::memory_order MO,
                 const VectorClock *ExtraRelease);
  static bool isAcquire(std::memory_order MO);
  static bool isRelease(std::memory_order MO);

  RaceDetector &RD;
  ChoiceFn Choice;
  AtomicModelOptions Opts;
  std::unordered_map<uintptr_t, Location> Locations;
  /// Guards Locations' structure: init/forget run in invisible code, in
  /// parallel with critical-section lookups. Nodes never move, so a
  /// Location reference stays valid after unlocking. A leaf lock.
  std::mutex LocationsMu;
  std::vector<PerThread> Threads;
  AtomicModelStats Stats;
};

} // namespace tsr

#endif // TSR_RACE_ATOMICMODEL_H
