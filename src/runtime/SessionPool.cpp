//===-- runtime/SessionPool.cpp - Multi-session record service ------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "runtime/SessionPool.h"

#include "support/Diag.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

namespace tsr {

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// True when \p Name is exactly one path component below DemoRoot.
bool isDirectoryName(const std::string &Name) {
  return !Name.empty() && Name != "." && Name != ".." &&
         Name.find('/') == std::string::npos;
}

/// \p Dir spelled one way per directory: absolute, lexically normal, no
/// trailing separator.
std::string normalDirectory(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::path P = std::filesystem::absolute(Dir, EC);
  if (EC)
    P = Dir;
  P = P.lexically_normal();
  if (!P.has_filename())
    P = P.parent_path();
  return P.string();
}

} // namespace

//===----------------------------------------------------------------------===//
// FleetReport
//===----------------------------------------------------------------------===//

std::string FleetReport::toJson() const {
  std::string Out;
  char Buf[256];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"sessions\":%zu,\"clean_replays\":%zu,\"hard_desyncs\":%zu,"
      "\"deadlocks\":%zu,\"stall_salvages\":%zu,\"zombies_retired\":%zu,"
      "\"zombies_leaked\":%zu,\"wall_seconds\":%.6f,",
      SessionsRun, CleanReplays, HardDesyncs, Deadlocks, StallSalvages,
      ZombiesRetired, ZombiesLeaked, WallSeconds);
  Out += Buf;
  Out += "\"session_names\":[";
  for (size_t I = 0; I != Sessions.size(); ++I) {
    if (I)
      Out += ',';
    Out += '"';
    Out += jsonEscape(Sessions[I].Name);
    Out += '"';
  }
  Out += "],\"totals\":";
  Out += Totals.toJson();
  Out += '}';
  return Out;
}

//===----------------------------------------------------------------------===//
// SessionPool
//===----------------------------------------------------------------------===//

SessionPool::SessionPool() : SessionPool(Options()) {}

SessionPool::SessionPool(Options O) : Opts(std::move(O)) {}

SessionPool::~SessionPool() {
  // Zombies pin parked-forever straggler threads; destroying their
  // Session would orphan threads that may still wake up retiring.
  // Deliberately leak what a last reap attempt cannot reclaim.
  reapZombies(0);
  std::lock_guard<std::mutex> L(ZombiesMu);
  for (Zombie &Z : Zombies)
    Z.S.release();
  Zombies.clear();
  Session::drainParkedSchedulers();
}

void SessionPool::submit(PoolSessionSpec Spec) {
  Pending.push_back(std::move(Spec));
}

std::string SessionPool::recordDirectory(const PoolSessionSpec &Spec) const {
  if (Spec.Config.ExecMode != Mode::Record)
    return "";
  if (Opts.DemoRoot.empty())
    return Spec.Config.Flush.Directory;
  return Opts.DemoRoot + "/" + Spec.Name;
}

PoolSessionResult SessionPool::runOne(PoolSessionSpec &&Spec, size_t Index,
                                      size_t &RetiredOut, size_t &LeakedOut) {
  PoolSessionResult Result;
  Result.Name = Spec.Name;
  Result.Index = Index;

  const std::string Dir = recordDirectory(Spec);
  SessionConfig Cfg = std::move(Spec.Config);
  Result.Replay = Cfg.ExecMode == Mode::Replay;
  if (!Opts.DemoRoot.empty() && !Dir.empty()) {
    Cfg.Flush.Directory = Dir;
    Cfg.Flush.EveryTicks = Opts.FlushEveryTicks;
  }

  auto S = std::make_unique<Session>(std::move(Cfg));
  if (Spec.Setup)
    Spec.Setup(*S);

  const auto T0 = std::chrono::steady_clock::now();
  Result.Report = S->run(std::move(Spec.Body));
  Result.WallSeconds = secondsSince(T0);
  Result.Salvaged = Result.Report.Deadlocked || Result.Report.StallSalvaged;

  if (Result.Salvaged) {
    // The salvaged run left stragglers parked forever in a scheduler that
    // moved to the parked registry. Retire them so the pool does not
    // accumulate one scheduler + K threads per salvage.
    S->beginStragglerRetire();
    if (S->waitStragglersRetired(Opts.RetireTimeoutMs)) {
      ++RetiredOut;
      S.reset();
    } else {
      // Stragglers still live: the Session must outlive them. Park it as
      // a zombie and retry from reapZombies()/the destructor.
      ++LeakedOut;
      std::lock_guard<std::mutex> L(ZombiesMu);
      Zombies.push_back(Zombie{std::move(S), Result.Name});
    }
    Session::drainParkedSchedulers();
  }
  return Result;
}

FleetReport SessionPool::runAll() {
  FleetReport Fleet;
  const size_t N = Pending.size();
  if (N == 0)
    return Fleet;

  std::vector<PoolSessionSpec> Specs(std::make_move_iterator(Pending.begin()),
                                     std::make_move_iterator(Pending.end()));
  Pending.clear();

  // Two recordings in one directory would interleave their chunks into
  // stream files neither can load, so refuse the batch before it starts.
  std::map<std::string, size_t> DirOwners;
  for (size_t I = 0; I != N; ++I) {
    const std::string Dir = recordDirectory(Specs[I]);
    if (Dir.empty())
      continue;
    const std::string &Name = Specs[I].Name;
    if (!Opts.DemoRoot.empty() && !isDirectoryName(Name))
      fatal("SessionPool: recording spec %zu is named '%s', which is not "
            "one directory under DemoRoot (it must be non-empty, not '.' "
            "or '..', and contain no '/')",
            I, Name.c_str());
    const auto [It, Fresh] = DirOwners.emplace(normalDirectory(Dir), I);
    if (!Fresh)
      fatal("SessionPool: recording specs %zu ('%s') and %zu ('%s') both "
            "record into %s",
            It->second, Specs[It->second].Name.c_str(), I, Name.c_str(),
            It->first.c_str());
  }

  unsigned Workers = Opts.Concurrency;
  if (Workers == 0) {
    Workers = std::thread::hardware_concurrency();
    if (Workers == 0)
      Workers = 4;
  }
  if (Workers > N)
    Workers = static_cast<unsigned>(N);

  Fleet.Sessions.resize(N);
  std::vector<size_t> Retired(Workers, 0), Leaked(Workers, 0);
  std::atomic<size_t> Next{0};

  const auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Pool;
  Pool.reserve(Workers);
  for (unsigned W = 0; W != Workers; ++W)
    Pool.emplace_back([this, W, &Specs, &Fleet, &Retired, &Leaked, &Next] {
      for (;;) {
        const size_t I = Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= Specs.size())
          return;
        Fleet.Sessions[I] =
            runOne(std::move(Specs[I]), I, Retired[W], Leaked[W]);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  Fleet.WallSeconds = secondsSince(T0);

  // Roll the per-session reports up into the fleet snapshot: every
  // dotted counter summed across sessions, plus outcome tallies.
  std::map<std::string, uint64_t> Summed;
  for (const PoolSessionResult &R : Fleet.Sessions) {
    ++Fleet.SessionsRun;
    if (R.Report.Deadlocked)
      ++Fleet.Deadlocks;
    if (R.Report.StallSalvaged)
      ++Fleet.StallSalvages;
    const bool Hard = R.Report.Desync == DesyncKind::Hard;
    if (Hard)
      ++Fleet.HardDesyncs;
    if (R.Replay && !Hard)
      ++Fleet.CleanReplays;
    for (const MetricCounter &C : R.Report.Metrics.counters())
      Summed[C.Name] += C.Value;
  }
  for (const auto &[Name, Value] : Summed)
    Fleet.Totals.counter(Name, Value);
  Fleet.Totals.counter("fleet.sessions", Fleet.SessionsRun);
  Fleet.Totals.counter("fleet.deadlocks", Fleet.Deadlocks);
  Fleet.Totals.counter("fleet.stall_salvages", Fleet.StallSalvages);
  Fleet.Totals.counter("fleet.hard_desyncs", Fleet.HardDesyncs);
  for (size_t W = 0; W != Workers; ++W) {
    Fleet.ZombiesRetired += Retired[W];
    Fleet.ZombiesLeaked += Leaked[W];
  }
  Session::drainParkedSchedulers();
  return Fleet;
}

size_t SessionPool::zombieCount() const {
  std::lock_guard<std::mutex> L(ZombiesMu);
  return Zombies.size();
}

size_t SessionPool::reapZombies(uint64_t TimeoutMs) {
  std::vector<Zombie> Local;
  {
    std::lock_guard<std::mutex> L(ZombiesMu);
    Local.swap(Zombies);
  }
  size_t Reclaimed = 0;
  std::vector<Zombie> Still;
  for (Zombie &Z : Local) {
    if (Z.S->waitStragglersRetired(TimeoutMs)) {
      Z.S.reset();
      ++Reclaimed;
    } else {
      Still.push_back(std::move(Z));
    }
  }
  if (!Still.empty()) {
    std::lock_guard<std::mutex> L(ZombiesMu);
    for (Zombie &Z : Still)
      Zombies.push_back(std::move(Z));
  }
  Session::drainParkedSchedulers();
  return Reclaimed;
}

} // namespace tsr
