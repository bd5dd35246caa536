// Operator taxonomy of the DGL Aggregation Primitive (Table 1 of the paper):
// an element-wise binary/unary operator ⊗ over (vertex, edge) feature pairs
// and an element-wise reduction ⊕ into the destination row.
#pragma once

#include <algorithm>

#include "util/types.hpp"

namespace distgnn {

enum class BinaryOp { kAdd, kSub, kMul, kDiv, kCopyLhs, kCopyRhs };
enum class ReduceOp { kSum, kMax, kMin };

inline constexpr BinaryOp kAllBinaryOps[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                                             BinaryOp::kDiv, BinaryOp::kCopyLhs, BinaryOp::kCopyRhs};
inline constexpr ReduceOp kAllReduceOps[] = {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin};

/// True when the operator reads the vertex-feature operand (lhs = fV[u]).
constexpr bool uses_lhs(BinaryOp op) { return op != BinaryOp::kCopyRhs; }
/// True when the operator reads the edge-feature operand (rhs = fE[e]).
constexpr bool uses_rhs(BinaryOp op) { return op != BinaryOp::kCopyLhs; }

/// Compile-time functors used to instantiate the micro-kernels.
template <BinaryOp Op>
struct BinaryFn;

template <>
struct BinaryFn<BinaryOp::kAdd> {
  static real_t apply(real_t x, real_t y) { return x + y; }
};
template <>
struct BinaryFn<BinaryOp::kSub> {
  static real_t apply(real_t x, real_t y) { return x - y; }
};
template <>
struct BinaryFn<BinaryOp::kMul> {
  static real_t apply(real_t x, real_t y) { return x * y; }
};
template <>
struct BinaryFn<BinaryOp::kDiv> {
  static real_t apply(real_t x, real_t y) { return x / y; }
};
template <>
struct BinaryFn<BinaryOp::kCopyLhs> {
  static real_t apply(real_t x, real_t) { return x; }
};
template <>
struct BinaryFn<BinaryOp::kCopyRhs> {
  static real_t apply(real_t, real_t y) { return y; }
};

template <ReduceOp Op>
struct ReduceFn;

template <>
struct ReduceFn<ReduceOp::kSum> {
  static real_t apply(real_t z, real_t v) { return z + v; }
};
template <>
struct ReduceFn<ReduceOp::kMax> {
  static real_t apply(real_t z, real_t v) { return std::max(z, v); }
};
template <>
struct ReduceFn<ReduceOp::kMin> {
  static real_t apply(real_t z, real_t v) { return std::min(z, v); }
};

}  // namespace distgnn
