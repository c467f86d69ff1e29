//===-- race/RaceDetector.h - Happens-before race detection ----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FastTrack-style vector-clock data race detector, the analysis core
/// that tsan/tsan11 provide in the paper's stack (§2): per-thread vector
/// clocks track the happens-before relation; shadow state per 8-byte
/// granule remembers the most recent accesses; an access that conflicts
/// with a prior access not ordered by happens-before is a race.
///
/// Plain (non-atomic) accesses are invisible operations and may be checked
/// concurrently. The default shadow backend is a two-level page table
/// (support/ShadowTable.h) whose common case — the FastTrack same-epoch
/// hit, where the accessing thread re-touches bytes it already touched at
/// its current epoch — is decided by one relaxed load of a packed 64-bit
/// shadow word with zero locks (DESIGN.md §10). Inflated state (read
/// vector clocks, cross-thread transitions) falls back to a per-page
/// mutex. The legacy striped unordered_map backend is kept behind
/// RaceShadowMode::StripedMap as a measurable baseline
/// (bench/race_overhead); detection semantics are identical.
///
/// Synchronisation updates (acquire/release/fork/join) happen inside
/// scheduler critical sections and need no extra locking: a thread's clock
/// is written only by that thread (or before it starts / after it
/// finishes).
///
//===----------------------------------------------------------------------===//

#ifndef TSR_RACE_RACEDETECTOR_H
#define TSR_RACE_RACEDETECTOR_H

#include "race/Report.h"
#include "support/ShadowTable.h"
#include "support/VectorClock.h"

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace tsr {

class TraceRecorder;

/// Which shadow-memory backend stores per-granule access history.
enum class RaceShadowMode : uint8_t {
  /// Two-level page table with the packed-word lock-free same-epoch fast
  /// path (DESIGN.md §10). The default.
  TwoLevel,
  /// The legacy striped unordered_map: a stripe mutex plus a hash lookup
  /// on every access. Kept as the baseline for bench/race_overhead.
  StripedMap,
};

/// Detector-internal counters surfaced through the metrics registry
/// (race.* in RunReport::Metrics).
struct RaceDetectorStats {
  uint64_t PlainAccesses = 0;  ///< Plain read/write calls checked.
  uint64_t SameEpochHits = 0;  ///< Granule checks matching own tid+epoch.
  uint64_t FastPathHits = 0;   ///< Granule checks resolved without a lock.
  uint64_t ReadInflations = 0; ///< Single-epoch read → read-VC transitions.
  uint64_t ShadowPages = 0;        ///< Live shadow pages (gauge).
  uint64_t ShadowPagesRetired = 0; ///< Pages dropped whole by forgetRange.
};

/// The happens-before race detector.
class RaceDetector {
public:
  explicit RaceDetector(RaceShadowMode Shadow = RaceShadowMode::TwoLevel);
  ~RaceDetector();

  RaceDetector(const RaceDetector &) = delete;
  RaceDetector &operator=(const RaceDetector &) = delete;

  RaceShadowMode shadowMode() const { return Shadow; }

  /// Registers the main thread (tid 0).
  void registerMainThread();

  /// Child inherits the parent's clock (thread creation synchronises), and
  /// the parent's own component ticks so post-fork parent work is not
  /// ordered before the child retroactively.
  void forkChild(Tid Parent, Tid Child);

  /// Join: the parent acquires everything the child did.
  void joinChild(Tid Parent, Tid Child);

  /// Plain memory accesses (invisible operations). Thread-safe.
  void onPlainRead(Tid T, uintptr_t Addr, size_t Size);
  void onPlainWrite(Tid T, uintptr_t Addr, size_t Size);

  /// Atomic memory accesses: never race with each other, but do race with
  /// unordered plain accesses. Called inside critical sections.
  void onAtomicRead(Tid T, uintptr_t Addr, size_t Size);
  void onAtomicWrite(Tid T, uintptr_t Addr, size_t Size);

  /// T.VC ⊔= From: T acquires everything released into \p From.
  void acquire(Tid T, const VectorClock &From);

  /// Into ⊔= T.VC, then T's component ticks: T releases its knowledge into
  /// the sync object \p Into.
  void releaseJoin(Tid T, VectorClock &Into);

  /// Direct clock access for the atomic model (which stores clock
  /// snapshots in store buffers). Only the owning thread may mutate.
  const VectorClock &clock(Tid T) const;
  VectorClock &clockMutable(Tid T);

  /// Advances T's own clock component (a release event).
  void tickClock(Tid T);

  /// Names a memory range so reports can identify it (Var<T> registers
  /// its storage here). Thread-safe.
  void registerName(uintptr_t Addr, size_t Size, std::string Name);
  void unregisterName(uintptr_t Addr);

  /// Name of the registered range containing \p Addr, or "" when none.
  /// Thread-safe; the profiler's lock-ledger resolution uses this to
  /// label contended locks by the Var<T>-style names already registered.
  std::string resolveName(uintptr_t Addr);

  /// Drops all shadow state for a range (storage reuse after free would
  /// otherwise produce false races). Thread-safe. Under the two-level
  /// backend, pages fully inside the range are retired whole in O(1).
  void forgetRange(uintptr_t Addr, size_t Size);

  /// Collected race reports (deduplicated per granule + kind pair).
  /// Names are resolved lazily here (see resolvePendingNamesLocked), so
  /// the access path never touches NamesMu.
  std::vector<RaceReport> reports();
  size_t reportCount();

  /// Counter snapshot for the metrics registry. Intended for after the
  /// run (reads per-thread counters without synchronisation).
  RaceDetectorStats statsSnapshot() const;

  /// When false, detection is skipped entirely (the paper's "no reports"
  /// columns still run detection; this switch instead models running
  /// without tsan11 instrumentation at all).
  void setEnabled(bool Enabled) { EnabledFlag = Enabled; }
  bool enabled() const { return EnabledFlag; }

  /// Execution-trace recorder to stamp race reports into (null disables;
  /// the session wires this up when tracing is enabled). Reports are
  /// emitted into the accessing thread's own trace buffer, stamped with
  /// the recorder's last observed tick — plain accesses run outside
  /// critical sections, so the current tick is only approximate here.
  void setTrace(TraceRecorder *T) { Trace = T; }

private:
  /// One remembered access: who, when, and which bytes of the granule.
  struct AccessSlot {
    Epoch E = 0;
    Tid T = 0;
    uint8_t Off = 0;
    uint8_t Size = 0;
    bool valid() const { return E != 0; }
    bool overlaps(uint8_t OtherOff, uint8_t OtherSize) const {
      return Off < OtherOff + OtherSize && OtherOff < Off + Size;
    }
  };

  /// Shadow state for one 8-byte granule (FastTrack adaptive read
  /// representation: an epoch while reads are totally ordered, a full
  /// vector clock once they are concurrent).
  struct ShadowCell {
    AccessSlot PlainWrite;
    AccessSlot PlainRead;
    bool ReadShared = false;
    VectorClock ReadVC;
    uint8_t SharedReadOff = 0;
    uint8_t SharedReadSize = 0;
    AccessSlot AtomicWrite;
    VectorClock AtomicReadVC;
    uint8_t AtomicReadOff = 0;
    uint8_t AtomicReadSize = 0;
    bool HasAtomicReads = false;
  };

  // --- Packed shadow words (two-level backend fast path).
  //
  // An AccessSlot packs into 64 bits as epoch:40 | tid:16 | off:4 | size:4.
  // Zero means "no state" (a valid slot has E >= 1 and Size >= 1).
  // PackedSentinel marks state the fast path must not reason about (an
  // unpackable epoch, or an inflated read set); it can never equal a
  // packed slot because no real tid reaches 0xFFFF.
  static constexpr uint64_t PackedSentinel = ~0ull;
  static_assert(MaxThreads <= 0xFFFF,
                "tids must fit the packed slot's 16-bit field below 0xFFFF");
  static constexpr Epoch MaxPackedEpoch = (Epoch(1) << 40) - 1;

  static uint64_t packSlot(Epoch E, Tid T, uint8_t Off, uint8_t Size) {
    if (E > MaxPackedEpoch)
      return 0;
    return (static_cast<uint64_t>(E) << 24) | (static_cast<uint64_t>(T) << 8) |
           (static_cast<uint64_t>(Off & 0xF) << 4) |
           static_cast<uint64_t>(Size & 0xF);
  }

  struct Stripe {
    std::mutex Mu;
    std::unordered_map<uintptr_t, ShadowCell> Cells;
  };

  static constexpr size_t NumStripes = 64;

  Stripe &stripeFor(uintptr_t Granule) {
    return Stripes[(Granule * 0x9E3779B97F4A7C15ull >> 32) % NumStripes];
  }

  using Table = ShadowTable<ShadowCell>;

  /// Per-thread detector state, allocated when the thread registers.
  /// Cache-line sized so concurrent threads' counters never false-share.
  /// Registration (registerMainThread, or forkChild on the parent) fills
  /// the cell before publishing it; after that only the owning thread
  /// writes it.
  struct alignas(64) ThreadCell {
    VectorClock VC;
    /// Owner-thread cache of VC.get(self): own components change only
    /// through tickClock/forkChild (acquire joins never raise a thread's
    /// own component), so the cache is refreshed at exactly those points.
    Epoch OwnEpoch = 0;
    uint64_t PlainAccesses = 0;
    uint64_t SameEpochHits = 0;
    uint64_t FastPathHits = 0;
    uint64_t ReadInflations = 0;
  };

  /// The registered cell of \p T (acquire load; asserts registration).
  ThreadCell &threadCell(Tid T) const;

  void access(Tid T, uintptr_t Addr, size_t Size, AccessKind Kind);
  bool tryFastPath(Table::FastCell &F, Tid T, Epoch E, uint8_t Off,
                   uint8_t Size, AccessKind Kind, ThreadCell &TS);
  void publishMirror(Table::FastCell &F, const ShadowCell &Cell);
  void checkCell(Tid T, uintptr_t Granule, ShadowCell &Cell, uint8_t Off,
                 uint8_t Size, AccessKind Kind, const VectorClock &TC,
                 ThreadCell &TS);
  void report(Tid T, uintptr_t Granule, uint8_t Off, uint8_t Size,
              AccessKind Prior, Tid PriorTid, AccessKind Current);

  /// Fills in Names for reports added since the last resolution. Lock
  /// order: ReportsMu (held by the caller) then NamesMu (taken here) —
  /// never the reverse. Each report is resolved exactly once, against the
  /// names registered at the earliest snapshot/unregister after it; a
  /// report that resolves to no name stays unnamed.
  void resolvePendingNamesLocked();

  const RaceShadowMode Shadow;

  bool EnabledFlag = true;

  /// Optional execution-trace recorder (see setTrace).
  TraceRecorder *Trace = nullptr;

  /// Per-thread cells, indexed by tid (MaxThreads, shared with the
  /// scheduler's table). Slot T is null until thread T registers and then
  /// holds its cell until the detector dies, so lock-free readers never
  /// see one move. Registration publishes a cell with a release store;
  /// ClocksMu serialises registration only. The cells live on the heap
  /// rather than inline so the detector itself stays a plain,
  /// max_align_t-aligned allocation (DESIGN.md §10.2).
  std::array<std::atomic<ThreadCell *>, MaxThreads> Threads{};
  std::mutex ClocksMu;

  /// Legacy striped backend (RaceShadowMode::StripedMap).
  std::array<Stripe, NumStripes> Stripes;

  /// Two-level backend (RaceShadowMode::TwoLevel).
  Table Pages;

  std::mutex ReportsMu;
  std::vector<RaceReport> Reports;
  std::unordered_set<uint64_t> ReportKeys;
  /// Reports[0..NamesResolvedUpTo) have had name resolution applied.
  size_t NamesResolvedUpTo = 0;

  std::mutex NamesMu;
  std::map<uintptr_t, std::pair<size_t, std::string>> Names;
};

static_assert(alignof(RaceDetector) <= alignof(std::max_align_t),
              "an over-aligned detector leaves glibc a hole the next "
              "session's detector cannot reuse (DESIGN.md §10.2)");

} // namespace tsr

#endif // TSR_RACE_RACEDETECTOR_H
