//===-- race/AtomicModel.cpp - C++11 weak-memory atomic model --*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "race/AtomicModel.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace tsr;

AtomicModel::AtomicModel(RaceDetector &RD, ChoiceFn Choice,
                         AtomicModelOptions Opts)
    : RD(RD), Choice(std::move(Choice)), Opts(Opts) {}

bool AtomicModel::isAcquire(std::memory_order MO) {
  return MO == std::memory_order_acquire || MO == std::memory_order_consume ||
         MO == std::memory_order_acq_rel || MO == std::memory_order_seq_cst;
}

bool AtomicModel::isRelease(std::memory_order MO) {
  return MO == std::memory_order_release ||
         MO == std::memory_order_acq_rel || MO == std::memory_order_seq_cst;
}

AtomicModel::Location &AtomicModel::locationFor(uintptr_t Addr) {
  std::lock_guard<std::mutex> G(LocationsMu);
  auto [It, Inserted] = Locations.try_emplace(Addr);
  // Implicit zero-initialisation: one store visible to every thread.
  if (Inserted)
    It->second.History.push_back(StoreRecord{});
  return It->second;
}

AtomicModel::PerThread &AtomicModel::threadFor(Tid T) {
  if (T >= Threads.size())
    Threads.resize(T + 1);
  return Threads[T];
}

void AtomicModel::init(uintptr_t Addr, uint64_t Value) {
  // Construction is not a visible operation, but it resets any history a
  // previous object at the same address left behind.
  std::lock_guard<std::mutex> G(LocationsMu);
  Location &L = Locations[Addr];
  L = Location{};
  StoreRecord S;
  S.Value = Value;
  L.History.push_back(std::move(S));
}

uint64_t AtomicModel::readableLowerBound(Location &L, Tid T,
                                         bool SeqCstLoad) {
  const VectorClock &TC = RD.clock(T);
  uint64_t LB = L.AbsBase;
  // The newest store that happens-before the load hides everything older
  // (write-read coherence + happens-before consistency). Scan newest to
  // oldest; the first covered store is the bound.
  for (uint64_t Abs = L.absLast() + 1; Abs-- > L.AbsBase;) {
    const StoreRecord &S = L.at(Abs);
    if (S.WriterEpoch == 0 || TC.covers(S.Writer, S.WriterEpoch)) {
      LB = std::max(LB, Abs);
      break;
    }
  }
  // Read-read coherence for this thread.
  if (T < L.LastReadAbsPlus1.size() && L.LastReadAbsPlus1[T] > 0)
    LB = std::max(LB, L.LastReadAbsPlus1[T] - 1);
  // A seq_cst load may not read a store older than the newest seq_cst
  // store (total order S, approximated as in tsan11).
  if (SeqCstLoad && L.LastScStoreAbsPlus1 > 0)
    LB = std::max(LB, L.LastScStoreAbsPlus1 - 1);
  return std::max(LB, L.AbsBase);
}

void AtomicModel::applyAcquire(Tid T, const StoreRecord &S,
                               std::memory_order MO) {
  if (S.ReleaseVC.size() == 0)
    return;
  if (isAcquire(MO)) {
    RD.clockMutable(T).join(S.ReleaseVC);
    return;
  }
  // Relaxed load of a release store: the synchronisation is deferred until
  // this thread performs an acquire fence.
  threadFor(T).PendingAcquire.join(S.ReleaseVC);
}

uint64_t AtomicModel::load(Tid T, uintptr_t Addr, std::memory_order MO,
                           size_t Size) {
  ++Stats.Loads;
  RD.onAtomicRead(T, Addr, Size);
  Location &L = locationFor(Addr);
  const bool SeqCstLoad = MO == std::memory_order_seq_cst;
  uint64_t Abs = L.absLast();
  if (Opts.WeakMemory) {
    const uint64_t LB = readableLowerBound(L, T, SeqCstLoad);
    const uint64_t Window = L.absLast() - LB + 1;
    Abs = LB + Choice(Window);
  }
  if (Abs != L.absLast())
    ++Stats.StaleReads;
  if (T >= L.LastReadAbsPlus1.size())
    L.LastReadAbsPlus1.resize(T + 1, 0);
  L.LastReadAbsPlus1[T] = std::max(L.LastReadAbsPlus1[T], Abs + 1);
  const StoreRecord &S = L.at(Abs);
  applyAcquire(T, S, MO);
  return S.Value;
}

void AtomicModel::pushStore(Location &L, Tid T, uint64_t Value,
                            std::memory_order MO,
                            const VectorClock *ExtraRelease) {
  StoreRecord S;
  S.Value = Value;
  S.Writer = T;
  S.WriterEpoch = RD.clock(T).get(T);
  S.SeqCst = MO == std::memory_order_seq_cst;
  if (isRelease(MO)) {
    S.ReleaseVC = RD.clock(T);
  } else {
    const PerThread &PT = threadFor(T);
    if (PT.HasFenceRelease)
      S.ReleaseVC = PT.FenceRelease; // Release fence + relaxed store.
  }
  if (ExtraRelease)
    S.ReleaseVC.join(*ExtraRelease); // Release-sequence continuation.
  L.History.push_back(std::move(S));
  if (L.History.back().SeqCst)
    L.LastScStoreAbsPlus1 = L.absLast() + 1;
  // Every store is a distinct event on the writer's timeline.
  RD.tickClock(T);
  // Prune the oldest stores beyond the buffer bound.
  while (L.History.size() > Opts.MaxHistory) {
    L.History.erase(L.History.begin());
    ++L.AbsBase;
  }
}

void AtomicModel::store(Tid T, uintptr_t Addr, uint64_t Value,
                        std::memory_order MO, size_t Size) {
  ++Stats.Stores;
  RD.onAtomicWrite(T, Addr, Size);
  Location &L = locationFor(Addr);
  pushStore(L, T, Value, MO, nullptr);
  // The writer has "read" its own store for coherence purposes.
  if (T >= L.LastReadAbsPlus1.size())
    L.LastReadAbsPlus1.resize(T + 1, 0);
  L.LastReadAbsPlus1[T] = L.absLast() + 1;
}

uint64_t AtomicModel::rmw(Tid T, uintptr_t Addr, RmwOp Op, uint64_t Operand,
                          std::memory_order MO, size_t Size) {
  ++Stats.Rmws;
  RD.onAtomicRead(T, Addr, Size);
  RD.onAtomicWrite(T, Addr, Size);
  Location &L = locationFor(Addr);
  // An RMW reads the newest store in modification order (C++11 [atomics]).
  const uint64_t PrevAbs = L.absLast();
  const StoreRecord &Prev = L.at(PrevAbs);
  const uint64_t Old = Prev.Value;
  applyAcquire(T, Prev, MO);
  uint64_t New = 0;
  switch (Op) {
  case RmwOp::Add:
    New = Old + Operand;
    break;
  case RmwOp::Sub:
    New = Old - Operand;
    break;
  case RmwOp::And:
    New = Old & Operand;
    break;
  case RmwOp::Or:
    New = Old | Operand;
    break;
  case RmwOp::Xor:
    New = Old ^ Operand;
    break;
  case RmwOp::Exchange:
    New = Operand;
    break;
  }
  // An RMW continues the release sequence of the store it reads from: its
  // release clock includes the previous store's clock even when the RMW
  // itself is relaxed.
  const VectorClock PrevRelease = Prev.ReleaseVC;
  pushStore(L, T, New, MO, &PrevRelease);
  if (T >= L.LastReadAbsPlus1.size())
    L.LastReadAbsPlus1.resize(T + 1, 0);
  L.LastReadAbsPlus1[T] = L.absLast() + 1;
  return Old;
}

bool AtomicModel::cas(Tid T, uintptr_t Addr, uint64_t &Expected,
                      uint64_t Desired, std::memory_order Success,
                      std::memory_order Failure, size_t Size) {
  Location &L = locationFor(Addr);
  const uint64_t Cur = L.at(L.absLast()).Value;
  if (Cur == Expected) {
    // Success path is a genuine RMW of the newest store.
    ++Stats.Rmws;
    RD.onAtomicRead(T, Addr, Size);
    RD.onAtomicWrite(T, Addr, Size);
    const StoreRecord &Prev = L.at(L.absLast());
    applyAcquire(T, Prev, Success);
    const VectorClock PrevRelease = Prev.ReleaseVC;
    pushStore(L, T, Desired, Success, &PrevRelease);
    if (T >= L.LastReadAbsPlus1.size())
      L.LastReadAbsPlus1.resize(T + 1, 0);
    L.LastReadAbsPlus1[T] = L.absLast() + 1;
    return true;
  }
  // Failure path acts as a load of the newest store with the failure
  // ordering.
  ++Stats.Loads;
  RD.onAtomicRead(T, Addr, Size);
  const uint64_t Abs = L.absLast();
  const StoreRecord &S = L.at(Abs);
  applyAcquire(T, S, Failure);
  if (T >= L.LastReadAbsPlus1.size())
    L.LastReadAbsPlus1.resize(T + 1, 0);
  L.LastReadAbsPlus1[T] = std::max(L.LastReadAbsPlus1[T], Abs + 1);
  Expected = S.Value;
  return false;
}

void AtomicModel::fence(Tid T, std::memory_order MO) {
  ++Stats.Fences;
  PerThread &PT = threadFor(T);
  if (isAcquire(MO)) {
    // Collect the deferred synchronisation from earlier relaxed loads.
    RD.clockMutable(T).join(PT.PendingAcquire);
    PT.PendingAcquire.clear();
  }
  // Seq_cst fences are handled as acquire+release fences. Modelling the
  // fence total order as a clock join would manufacture happens-before
  // edges the standard does not provide and hide fence-related races
  // (e.g. dekker-fences); tsan11 makes the same under-approximation.
  if (isRelease(MO)) {
    PT.FenceRelease = RD.clock(T);
    PT.HasFenceRelease = true;
    RD.tickClock(T);
  }
}

void AtomicModel::forget(uintptr_t Addr) {
  std::lock_guard<std::mutex> G(LocationsMu);
  Locations.erase(Addr);
}
