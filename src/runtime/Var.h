//===-- runtime/Var.h - Instrumented plain shared variables ----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// tsr::Var<T> is an instrumented *non-atomic* shared variable: accesses
/// are invisible operations (no scheduling point — invisible regions run
/// in parallel, §3.1) but are checked by the happens-before race detector,
/// exactly like tsan's compile-time instrumentation of plain loads and
/// stores. An optional name makes race reports readable. The raw accesses
/// are exempt from ThreadSanitizer: their races are the program's.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_RUNTIME_VAR_H
#define TSR_RUNTIME_VAR_H

#include "runtime/Session.h"
#include "support/Compiler.h"

#include <type_traits>

namespace tsr {

/// Instrumented plain variable.
template <typename T> class Var {
  static_assert(std::is_trivially_copyable_v<T>,
                "tsr::Var requires a trivially copyable type");

public:
  explicit Var(T Init = T(), const char *Name = nullptr) : Value(Init) {
    if (Name)
      if (Session *S = Session::current())
        S->race().registerName(addr(), sizeof(T), Name);
  }

  ~Var() {
    if (Session *S = Session::current()) {
      S->race().forgetRange(addr(), sizeof(T));
      S->race().unregisterName(addr());
    }
  }

  Var(const Var &) = delete;
  Var &operator=(const Var &) = delete;

  /// Instrumented read.
  TSR_NO_SANITIZE_THREAD T get() const {
    const AccessContext C = Session::currentAccessContext();
    if (C.S)
      C.S->race().onPlainRead(C.T, addr(), sizeof(T));
    return Value;
  }

  /// Instrumented write.
  TSR_NO_SANITIZE_THREAD void set(const T &V) {
    const AccessContext C = Session::currentAccessContext();
    if (C.S)
      C.S->race().onPlainWrite(C.T, addr(), sizeof(T));
    Value = V;
  }

  operator T() const { return get(); }
  Var &operator=(const T &V) {
    set(V);
    return *this;
  }

private:
  uintptr_t addr() const { return reinterpret_cast<uintptr_t>(&Value); }

  T Value;
};

/// Instrumented access to arbitrary storage (arrays, struct fields).
template <typename T> TSR_NO_SANITIZE_THREAD T plainRead(const T &Ref) {
  const AccessContext C = Session::currentAccessContext();
  if (C.S)
    C.S->race().onPlainRead(C.T, reinterpret_cast<uintptr_t>(&Ref),
                            sizeof(T));
  return Ref;
}

template <typename T>
TSR_NO_SANITIZE_THREAD void plainWrite(T &Ref, const T &V) {
  const AccessContext C = Session::currentAccessContext();
  if (C.S)
    C.S->race().onPlainWrite(C.T, reinterpret_cast<uintptr_t>(&Ref),
                             sizeof(T));
  Ref = V;
}

} // namespace tsr

#endif // TSR_RUNTIME_VAR_H
