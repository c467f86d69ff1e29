//===-- race/RaceDetector.cpp - Happens-before race detection --*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "race/RaceDetector.h"

#include "support/Compiler.h"
#include "support/Diag.h"
#include "support/Trace.h"

#include <algorithm>

using namespace tsr;

const char *tsr::accessKindName(AccessKind Kind) {
  switch (Kind) {
  case AccessKind::PlainRead:
    return "read";
  case AccessKind::PlainWrite:
    return "write";
  case AccessKind::AtomicRead:
    return "atomic read";
  case AccessKind::AtomicWrite:
    return "atomic write";
  }
  TSR_UNREACHABLE("invalid AccessKind");
}

std::string RaceReport::str() const {
  const std::string Where =
      Name.empty()
          ? formatString("0x%llx", static_cast<unsigned long long>(Addr))
          : formatString("'%s' at 0x%llx", Name.c_str(),
                         static_cast<unsigned long long>(Addr));
  return formatString(
      "data race on %s (%zu bytes): %s by thread %u vs prior %s by thread %u",
      Where.c_str(), Size, accessKindName(Current), CurrentTid,
      accessKindName(Prior), PriorTid);
}

RaceDetector::RaceDetector(RaceShadowMode Shadow) : Shadow(Shadow) {}

RaceDetector::~RaceDetector() {
  for (std::atomic<ThreadCell *> &Cell : Threads)
    delete Cell.load(std::memory_order_relaxed);
}

RaceDetector::ThreadCell &RaceDetector::threadCell(Tid T) const {
  assert(T < MaxThreads && "thread id beyond detector capacity");
  ThreadCell *Cell = Threads[T].load(std::memory_order_acquire);
  assert(Cell && "unregistered thread");
  return *Cell;
}

void RaceDetector::registerMainThread() {
  std::lock_guard<std::mutex> L(ClocksMu);
  assert(!Threads[0].load(std::memory_order_relaxed) &&
         "main thread registered twice");
  auto *Main = new ThreadCell();
  Main->OwnEpoch = Main->VC.tick(0);
  Threads[0].store(Main, std::memory_order_release);
}

void RaceDetector::forkChild(Tid Parent, Tid Child) {
  std::lock_guard<std::mutex> L(ClocksMu);
  ThreadCell *P = Threads[Parent].load(std::memory_order_relaxed);
  assert(P && "unknown parent thread");
  assert(!Threads[Child].load(std::memory_order_relaxed) &&
         "child thread registered twice");
  // Creation synchronises: everything the parent did so far
  // happens-before everything the child does.
  auto *C = new ThreadCell();
  C->VC = P->VC;
  C->OwnEpoch = C->VC.tick(Child);
  // forkChild runs on the parent thread, so its cell is ours to update;
  // the release store below publishes the initialised child cell to
  // concurrent lock-free readers.
  P->OwnEpoch = P->VC.tick(Parent);
  Threads[Child].store(C, std::memory_order_release);
}

void RaceDetector::joinChild(Tid Parent, Tid Child) {
  threadCell(Parent).VC.join(threadCell(Child).VC);
}

const VectorClock &RaceDetector::clock(Tid T) const {
  return threadCell(T).VC;
}

VectorClock &RaceDetector::clockMutable(Tid T) { return threadCell(T).VC; }

void RaceDetector::tickClock(Tid T) {
  ThreadCell &C = threadCell(T);
  C.OwnEpoch = C.VC.tick(T);
}

void RaceDetector::acquire(Tid T, const VectorClock &From) {
  ThreadCell &C = threadCell(T);
  C.VC.join(From);
  // A join never raises T's own component (only T ticks it), but refresh
  // the cache anyway so the invariant survives future changes.
  C.OwnEpoch = C.VC.get(T);
}

void RaceDetector::releaseJoin(Tid T, VectorClock &Into) {
  Into.join(clock(T));
  tickClock(T);
}

void RaceDetector::onPlainRead(Tid T, uintptr_t Addr, size_t Size) {
  if (EnabledFlag)
    access(T, Addr, Size, AccessKind::PlainRead);
}

void RaceDetector::onPlainWrite(Tid T, uintptr_t Addr, size_t Size) {
  if (EnabledFlag)
    access(T, Addr, Size, AccessKind::PlainWrite);
}

void RaceDetector::onAtomicRead(Tid T, uintptr_t Addr, size_t Size) {
  if (EnabledFlag)
    access(T, Addr, Size, AccessKind::AtomicRead);
}

void RaceDetector::onAtomicWrite(Tid T, uintptr_t Addr, size_t Size) {
  if (EnabledFlag)
    access(T, Addr, Size, AccessKind::AtomicWrite);
}

void RaceDetector::access(Tid T, uintptr_t Addr, size_t Size,
                          AccessKind Kind) {
  ThreadCell &TS = threadCell(T);
  const VectorClock &VC = TS.VC;
  const bool Plain =
      Kind == AccessKind::PlainRead || Kind == AccessKind::PlainWrite;
  if (Plain)
    ++TS.PlainAccesses;
  const Epoch E = TS.OwnEpoch;
  assert(E == VC.get(T) && "stale own-epoch cache");
  const uintptr_t FirstGranule = Addr >> 3;
  const uintptr_t LastGranule = (Addr + Size - 1) >> 3;
  for (uintptr_t G = FirstGranule; G <= LastGranule; ++G) {
    const uintptr_t Lo = std::max<uintptr_t>(Addr, G << 3);
    const uintptr_t Hi = std::min<uintptr_t>(Addr + Size, (G + 1) << 3);
    const uint8_t Off = static_cast<uint8_t>(Lo - (G << 3));
    const uint8_t Sz = static_cast<uint8_t>(Hi - Lo);
    if (Shadow == RaceShadowMode::StripedMap) {
      Stripe &S = stripeFor(G);
      std::lock_guard<std::mutex> L(S.Mu);
      checkCell(T, G, S.Cells[G], Off, Sz, Kind, VC, TS);
      continue;
    }
    Table::Page &P = Pages.pageFor(G);
    Table::FastCell &F = P.fast(G);
    if (Plain && TSR_LIKELY(tryFastPath(F, T, E, Off, Sz, Kind, TS)))
      continue;
    std::lock_guard<std::mutex> L(P.Mu);
    ShadowCell &Cell = P.cell(G);
    checkCell(T, G, Cell, Off, Sz, Kind, VC, TS);
    publishMirror(F, Cell);
  }
}

// The lock-free same-epoch fast path (DESIGN.md §10). An access may be
// skipped outright when the matching shadow word shows this thread
// already performed the *identical* access (same tid, epoch, and byte
// range) and no other state could make the full check report a new race
// or change the cell — the slow path would be an exact no-op. The match
// is exact rather than merely covering so the backends stay bit-identical:
// the slow path narrows a same-epoch slot's remembered range on
// re-access, and skipping that narrowing would alter later checks.
// Relaxed loads are sound: plain accesses are unordered by construction,
// so any stale view the loads produce corresponds to a legal
// serialisation of those accesses — and the fast path never mutates, so a
// spurious miss merely takes the locked slow path.
bool RaceDetector::tryFastPath(Table::FastCell &F, Tid T, Epoch E,
                               uint8_t Off, uint8_t Size, AccessKind Kind,
                               ThreadCell &TS) {
  const uint64_t Packed = packSlot(E, T, Off, Size);
  if (TSR_UNLIKELY(Packed == 0))
    return false; // Epoch beyond the packable range; always take the lock.
  // SameEpochHits counts granule checks where the thread's current epoch
  // already stamps the granule in either packed word — FastTrack's
  // same-epoch notion — even when the access still needs the slow path
  // (e.g. a write right after same-epoch reads must subsume the read
  // slot). FastPathHits counts the subset decided without the lock.
  if (Kind == AccessKind::PlainRead) {
    const uint64_t R = F.R.load(std::memory_order_relaxed);
    if ((R ^ Packed) >> 8) {
      if (((F.W.load(std::memory_order_relaxed) ^ Packed) >> 8) == 0)
        ++TS.SameEpochHits; // Read of a granule we wrote this epoch.
      return false; // Different tid or epoch (or empty / inflated).
    }
    ++TS.SameEpochHits;
    // Same-epoch read: skippable if the remembered range is identical
    // (the cell update would be a no-op) and no atomic state exists to
    // check against. A same-epoch R word also proves the plain-write
    // slot is unchanged since our own slow-path read already checked it:
    // every plain write clears the read word.
    if (R != Packed || F.A.load(std::memory_order_relaxed) != 0)
      return false;
    ++TS.FastPathHits;
    return true;
  }
  const uint64_t W = F.W.load(std::memory_order_relaxed);
  if ((W ^ Packed) >> 8) {
    if (((F.R.load(std::memory_order_relaxed) ^ Packed) >> 8) == 0)
      ++TS.SameEpochHits; // Write to a granule we read this epoch.
    return false;
  }
  ++TS.SameEpochHits;
  // Same-epoch write: skippable only if it is a pure no-op — identical
  // remembered range, no read state to subsume (a write clears reads) and
  // no atomic state to check against.
  if (W != Packed || F.R.load(std::memory_order_relaxed) != 0 ||
      F.A.load(std::memory_order_relaxed) != 0)
    return false;
  ++TS.FastPathHits;
  return true;
}

// Mirrors the authoritative cell into the packed fast words. Called with
// the page mutex held, after every slow-path check.
void RaceDetector::publishMirror(Table::FastCell &F, const ShadowCell &Cell) {
  auto PackOrSentinel = [](const AccessSlot &S) -> uint64_t {
    if (!S.valid())
      return 0;
    const uint64_t P = packSlot(S.E, S.T, S.Off, S.Size);
    return P ? P : PackedSentinel;
  };
  F.W.store(PackOrSentinel(Cell.PlainWrite), std::memory_order_relaxed);
  F.R.store(Cell.ReadShared ? PackedSentinel
                            : PackOrSentinel(Cell.PlainRead),
            std::memory_order_relaxed);
  F.A.store((Cell.AtomicWrite.valid() || Cell.HasAtomicReads) ? 1 : 0,
            std::memory_order_relaxed);
}

void RaceDetector::checkCell(Tid T, uintptr_t Granule, ShadowCell &Cell,
                             uint8_t Off, uint8_t Size, AccessKind Kind,
                             const VectorClock &TC, ThreadCell &TS) {
  const Epoch E = TC.get(T);

  auto CoveredSlot = [&](const AccessSlot &Slot) {
    return Slot.T == T || TC.covers(Slot.T, Slot.E);
  };
  auto RaceVsSlot = [&](const AccessSlot &Slot, AccessKind PriorKind) {
    if (Slot.valid() && Slot.overlaps(Off, Size) && !CoveredSlot(Slot))
      report(T, Granule, Off, Size, PriorKind, Slot.T, Kind);
  };
  // A clock-set of readers races if any component exceeds ours.
  auto FirstUncoveredReader = [&](const VectorClock &RVC) -> Tid {
    const Epoch *R = RVC.components();
    for (Tid I = 0, N = static_cast<Tid>(RVC.size()); I != N; ++I)
      if (I != T && R[I] > TC.get(I))
        return I;
    return InvalidTid;
  };

  const bool IsWrite =
      Kind == AccessKind::PlainWrite || Kind == AccessKind::AtomicWrite;
  const bool IsAtomic =
      Kind == AccessKind::AtomicRead || Kind == AccessKind::AtomicWrite;

  // Conflicts with the prior plain write (every kind conflicts).
  RaceVsSlot(Cell.PlainWrite, AccessKind::PlainWrite);

  if (IsWrite) {
    // Writes additionally conflict with prior plain reads.
    if (Cell.ReadShared) {
      if (Cell.SharedReadSize != 0 &&
          AccessSlot{1, 0, Cell.SharedReadOff, Cell.SharedReadSize}.overlaps(
              Off, Size)) {
        const Tid R = FirstUncoveredReader(Cell.ReadVC);
        if (R != InvalidTid)
          report(T, Granule, Off, Size, AccessKind::PlainRead, R, Kind);
      }
    } else {
      RaceVsSlot(Cell.PlainRead, AccessKind::PlainRead);
    }
  }

  if (!IsAtomic) {
    // Plain accesses conflict with unordered atomic writes; plain writes
    // also conflict with unordered atomic reads.
    RaceVsSlot(Cell.AtomicWrite, AccessKind::AtomicWrite);
    if (IsWrite && Cell.HasAtomicReads &&
        AccessSlot{1, 0, Cell.AtomicReadOff, Cell.AtomicReadSize}.overlaps(
            Off, Size)) {
      const Tid R = FirstUncoveredReader(Cell.AtomicReadVC);
      if (R != InvalidTid)
        report(T, Granule, Off, Size, AccessKind::AtomicRead, R, Kind);
    }
  }

  // State update.
  auto UnionRange = [](uint8_t &ROff, uint8_t &RSize, uint8_t NOff,
                       uint8_t NSize) {
    if (RSize == 0) {
      ROff = NOff;
      RSize = NSize;
      return;
    }
    const uint8_t Lo = std::min(ROff, NOff);
    const uint8_t Hi =
        std::max(static_cast<uint8_t>(ROff + RSize),
                 static_cast<uint8_t>(NOff + NSize));
    ROff = Lo;
    RSize = Hi - Lo;
  };

  switch (Kind) {
  case AccessKind::PlainWrite:
    Cell.PlainWrite = {E, T, Off, Size};
    // FastTrack: a write subsumes the read set that happens-before it.
    Cell.PlainRead = {};
    Cell.ReadShared = false;
    Cell.ReadVC.clear();
    Cell.SharedReadSize = 0;
    break;
  case AccessKind::PlainRead:
    if (Cell.ReadShared) {
      Cell.ReadVC.set(T, E);
      UnionRange(Cell.SharedReadOff, Cell.SharedReadSize, Off, Size);
    } else if (!Cell.PlainRead.valid() || Cell.PlainRead.T == T ||
               CoveredSlot(Cell.PlainRead)) {
      Cell.PlainRead = {E, T, Off, Size};
    } else {
      // Concurrent readers: inflate to the vector-clock representation.
      ++TS.ReadInflations;
      Cell.ReadShared = true;
      Cell.ReadVC.clear();
      Cell.ReadVC.set(Cell.PlainRead.T, Cell.PlainRead.E);
      Cell.ReadVC.set(T, E);
      Cell.SharedReadOff = Cell.PlainRead.Off;
      Cell.SharedReadSize = Cell.PlainRead.Size;
      UnionRange(Cell.SharedReadOff, Cell.SharedReadSize, Off, Size);
      Cell.PlainRead = {};
    }
    break;
  case AccessKind::AtomicWrite:
    Cell.AtomicWrite = {E, T, Off, Size};
    break;
  case AccessKind::AtomicRead:
    Cell.AtomicReadVC.set(T, E);
    UnionRange(Cell.AtomicReadOff, Cell.AtomicReadSize, Off, Size);
    Cell.HasAtomicReads = true;
    break;
  }
}

void RaceDetector::report(Tid T, uintptr_t Granule, uint8_t Off,
                          uint8_t Size, AccessKind Prior, Tid PriorTid,
                          AccessKind Current) {
  const uint64_t Key = (static_cast<uint64_t>(Granule) << 4) ^
                       (static_cast<uint64_t>(Prior) << 2) ^
                       static_cast<uint64_t>(Current);
  std::lock_guard<std::mutex> L(ReportsMu);
  if (!ReportKeys.insert(Key).second)
    return;
  RaceReport R;
  R.Addr = (Granule << 3) + Off;
  R.Size = Size;
  R.Prior = Prior;
  R.PriorTid = PriorTid;
  R.Current = Current;
  R.CurrentTid = T;
  // Name resolution is deferred to reports()/unregisterName so a racy
  // access never blocks on NamesMu (the access path holds at most
  // ReportsMu here).
  Reports.push_back(std::move(R));
  // Into the accessing thread's own trace buffer (single-writer holds:
  // report() runs on thread T). Plain accesses happen outside critical
  // sections, so the stamp is the recorder's last observed tick.
  if (TSR_UNLIKELY(Trace != nullptr))
    Trace->emit(T, TraceEventKind::RaceReport, Trace->lastTick(),
                static_cast<uint64_t>(Granule),
                static_cast<uint64_t>(Current));
}

void RaceDetector::resolvePendingNamesLocked() {
  if (NamesResolvedUpTo == Reports.size())
    return;
  std::lock_guard<std::mutex> NL(NamesMu);
  for (; NamesResolvedUpTo != Reports.size(); ++NamesResolvedUpTo) {
    RaceReport &R = Reports[NamesResolvedUpTo];
    auto It = Names.upper_bound(R.Addr);
    if (It == Names.begin())
      continue;
    --It;
    if (R.Addr < It->first + It->second.first)
      R.Name = It->second.second;
  }
}

void RaceDetector::registerName(uintptr_t Addr, size_t Size,
                                std::string Name) {
  std::lock_guard<std::mutex> L(NamesMu);
  Names[Addr] = {Size, std::move(Name)};
}

std::string RaceDetector::resolveName(uintptr_t Addr) {
  std::lock_guard<std::mutex> L(NamesMu);
  auto It = Names.upper_bound(Addr);
  if (It == Names.begin())
    return std::string();
  --It;
  if (Addr < It->first + It->second.first)
    return It->second.second;
  return std::string();
}

void RaceDetector::unregisterName(uintptr_t Addr) {
  // Resolve pending reports first: the name being removed may be theirs
  // (Var destructors run before the final report snapshot).
  std::lock_guard<std::mutex> L(ReportsMu);
  resolvePendingNamesLocked();
  std::lock_guard<std::mutex> NL(NamesMu);
  Names.erase(Addr);
}

void RaceDetector::forgetRange(uintptr_t Addr, size_t Size) {
  if (Size == 0)
    return;
  const uintptr_t FirstGranule = Addr >> 3;
  const uintptr_t LastGranule = (Addr + Size - 1) >> 3;
  if (Shadow == RaceShadowMode::StripedMap) {
    for (uintptr_t G = FirstGranule; G <= LastGranule; ++G) {
      Stripe &S = stripeFor(G);
      std::lock_guard<std::mutex> L(S.Mu);
      S.Cells.erase(G);
    }
    return;
  }
  const uintptr_t FirstPage = FirstGranule >> Table::PageShift;
  const uintptr_t LastPage = LastGranule >> Table::PageShift;
  for (uintptr_t PI = FirstPage; PI <= LastPage; ++PI) {
    const uintptr_t PageFirst = PI << Table::PageShift;
    const uintptr_t PageLast = PageFirst + Table::PageGranules - 1;
    if (FirstGranule <= PageFirst && PageLast <= LastGranule) {
      // Page fully covered: drop it whole instead of erasing 512 cells.
      Pages.retirePage(PI);
      continue;
    }
    Table::Page *P = Pages.findPage(PageFirst);
    if (!P)
      continue;
    std::lock_guard<std::mutex> L(P->Mu);
    const uintptr_t Lo = std::max(FirstGranule, PageFirst);
    const uintptr_t Hi = std::min(LastGranule, PageLast);
    for (uintptr_t G = Lo; G <= Hi; ++G) {
      P->Cells.erase(static_cast<uint32_t>(G & (Table::PageGranules - 1)));
      Table::FastCell &F = P->fast(G);
      F.W.store(0, std::memory_order_relaxed);
      F.R.store(0, std::memory_order_relaxed);
      F.A.store(0, std::memory_order_relaxed);
    }
  }
}

std::vector<RaceReport> RaceDetector::reports() {
  std::lock_guard<std::mutex> L(ReportsMu);
  resolvePendingNamesLocked();
  return Reports;
}

size_t RaceDetector::reportCount() {
  std::lock_guard<std::mutex> L(ReportsMu);
  return Reports.size();
}

RaceDetectorStats RaceDetector::statsSnapshot() const {
  RaceDetectorStats S;
  for (const std::atomic<ThreadCell *> &Slot : Threads) {
    const ThreadCell *Cell = Slot.load(std::memory_order_acquire);
    if (!Cell)
      continue;
    S.PlainAccesses += Cell->PlainAccesses;
    S.SameEpochHits += Cell->SameEpochHits;
    S.FastPathHits += Cell->FastPathHits;
    S.ReadInflations += Cell->ReadInflations;
  }
  S.ShadowPages = Pages.pageCount();
  S.ShadowPagesRetired = Pages.retiredCount();
  return S;
}
