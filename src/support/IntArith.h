//===--- IntArith.h - ESP integer operator semantics ------------*- C++ -*-==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of ESP's binary integer operators, shared by Sema's
/// constant folder and the runtime's evaluator (plain and fused ops), so
/// a constant folds to exactly the value the machine computes.
///
/// Arithmetic is 64-bit two's complement with wrap-around: `+`, `-`, `*`
/// and unary `-` wrap instead of overflowing, and so does the one
/// overflowing division, INT64_MIN / -1 = INT64_MIN (with
/// INT64_MIN % -1 = 0). In C++ each of these is undefined behaviour, and
/// the division traps on x86 (SIGFPE). Division and remainder by zero are
/// the caller's to reject: Sema refuses to fold them and the machine
/// raises DivideByZero.
///
//===----------------------------------------------------------------------===//

#ifndef ESP_SUPPORT_INTARITH_H
#define ESP_SUPPORT_INTARITH_H

#include <cassert>
#include <cstdint>

namespace esp {

/// The binary operators on int (and, for Eq/Ne, bool) operands.
enum class IntOp : uint8_t { Add, Sub, Mul, Div, Mod, Lt, Le, Gt, Ge, Eq, Ne };

/// True for the six comparisons, whose result is a bool (0 or 1).
inline bool isCompare(IntOp Op) { return Op >= IntOp::Lt; }

/// Unary minus, wrapping: -INT64_MIN = INT64_MIN.
inline int64_t wrapNeg(int64_t V) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(V));
}

/// \p L Op \p R. Div and Mod require \p R != 0. Always inlined: the
/// evaluator's fused ops call it once per evaluation.
[[gnu::always_inline]] inline int64_t intOp(IntOp Op, int64_t L, int64_t R) {
  const uint64_t UL = static_cast<uint64_t>(L), UR = static_cast<uint64_t>(R);
  switch (Op) {
  case IntOp::Add:
    return static_cast<int64_t>(UL + UR);
  case IntOp::Sub:
    return static_cast<int64_t>(UL - UR);
  case IntOp::Mul:
    return static_cast<int64_t>(UL * UR);
  case IntOp::Div:
    assert(R != 0 && "division by zero reached intOp");
    return R == -1 ? wrapNeg(L) : L / R;
  case IntOp::Mod:
    assert(R != 0 && "division by zero reached intOp");
    return R == -1 ? 0 : L % R;
  case IntOp::Lt:
    return L < R;
  case IntOp::Le:
    return L <= R;
  case IntOp::Gt:
    return L > R;
  case IntOp::Ge:
    return L >= R;
  case IntOp::Eq:
    return L == R;
  case IntOp::Ne:
    return L != R;
  }
  return 0;
}

} // namespace esp

#endif // ESP_SUPPORT_INTARITH_H
