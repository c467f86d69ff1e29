//===-- support/Compiler.h - Compiler portability helpers ------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small compiler portability macros used across the tsr libraries.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_COMPILER_H
#define TSR_SUPPORT_COMPILER_H

#include <cassert>
#include <cstdio>
#include <cstdlib>

/// Marks a point in control flow that must never be reached. Aborts with a
/// message in all build modes (the runtime schedules real threads, so
/// silently continuing past a broken invariant would deadlock the host).
#define TSR_UNREACHABLE(Msg)                                                   \
  do {                                                                         \
    std::fprintf(stderr, "tsr: unreachable reached at %s:%d: %s\n", __FILE__,  \
                 __LINE__, (Msg));                                             \
    std::abort();                                                              \
  } while (false)

/// TSR_NO_SANITIZE_THREAD exempts a function's own accesses from TSan: for
/// the raw accessors of program variables, whose races tsr's detector
/// reports. Without -fsanitize=thread it changes nothing, inlining included.
#if defined(__GNUC__) || defined(__clang__)
#define TSR_LIKELY(X) __builtin_expect(!!(X), 1)
#define TSR_UNLIKELY(X) __builtin_expect(!!(X), 0)
#define TSR_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#else
#define TSR_LIKELY(X) (X)
#define TSR_UNLIKELY(X) (X)
#define TSR_NO_SANITIZE_THREAD
#endif

#endif // TSR_SUPPORT_COMPILER_H
