//===-- bench/BenchUtil.h - Benchmark harness helpers -----------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table-reproduction harnesses: repetition counts
/// (overridable via TSR_BENCH_REPS), aligned table printing, the paired-
/// ratio summary of interleaved repetitions, and the named tool
/// configurations each table sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_BENCH_BENCHUTIL_H
#define TSR_BENCH_BENCHUTIL_H

#include "runtime/Tsr.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace tsr {
namespace bench {

/// Reads an integer knob from the environment (bench scaling).
inline int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V ? std::atoi(V) : Default;
}

/// Prints one row of '|'-separated cells with the given widths.
inline void printRow(const std::vector<std::string> &Cells,
                     const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I != Cells.size(); ++I) {
    const int W = I < Widths.size() ? Widths[I] : 12;
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), " %-*s |", W, Cells[I].c_str());
    Line += Buf;
  }
  std::printf("|%s\n", Line.c_str());
}

/// Prints a rule matching printRow's widths.
inline void printRule(const std::vector<int> &Widths) {
  std::string Line;
  for (int W : Widths) {
    Line += "+";
    Line.append(static_cast<size_t>(W) + 2, '-');
  }
  std::printf("%s+\n", Line.c_str());
}

/// Formats a double with \p Decimals decimals.
inline std::string fmt(double V, int Decimals = 1) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, V);
  return Buf;
}

/// Formats "mean (stddev)".
inline std::string meanSd(const SampleStats &S, int Decimals = 1) {
  return fmt(S.mean(), Decimals) + " (" + fmt(S.stddev(), Decimals) + ")";
}

/// Median of \p V (0 when empty; the mean of the middle pair when even).
inline double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0.0
                   : (V.size() % 2 ? V[V.size() / 2]
                                   : (V[V.size() / 2 - 1] + V[V.size() / 2]) /
                                         2.0);
}

/// Median of the per-round ratios Num[i] / Den[i] (rounds with Den[i] <= 0
/// skipped). The two series come from cells run interleaved, one
/// repetition of each per round, so each round's ratio sees the same host
/// conditions: drift (frequency scaling, neighbours) that a ratio of means
/// would read as a difference cancels, and the median sheds outliers.
inline double medianPairedRatio(const std::vector<double> &Num,
                                const std::vector<double> &Den) {
  std::vector<double> Ratios;
  const size_t N = std::min(Num.size(), Den.size());
  for (size_t I = 0; I != N; ++I)
    if (Den[I] > 0)
      Ratios.push_back(Num[I] / Den[I]);
  return medianOf(Ratios);
}

/// Formats an overhead multiplier like the paper's Tables 2 and 4.
inline std::string overhead(double Slow, double Base) {
  if (Base <= 0)
    return "n/a";
  return fmt(Slow / Base, 1) + "x";
}

/// A named tool configuration used by a sweep.
struct ToolConfig {
  std::string Name;
  SessionConfig Config;
};

/// Deterministic per-repetition seeds so reruns of a bench are
/// reproducible while different repetitions still explore different
/// schedules.
inline void seedFor(SessionConfig &C, uint64_t Rep, uint64_t EnvSalt = 9) {
  C.Seed0 = 0x5EED + Rep * 1299721;
  C.Seed1 = 0xFACE + Rep * 7778777;
  C.Env.Seed0 = EnvSalt + Rep * 104729;
  C.Env.Seed1 = EnvSalt * 31 + Rep * 130363;
}

} // namespace bench
} // namespace tsr

#endif // TSR_BENCH_BENCHUTIL_H
