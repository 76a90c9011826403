#pragma once

/// Opts one function into GCC's dynamic vectorizer cost model.
///
/// Release builds are -O2, where GCC uses the "very-cheap" cost model: a
/// loop is vectorized only if the vector code replaces the scalar loop
/// entirely, i.e. its trip count is known to be a multiple of the vector
/// width. That rejects every elementwise loop over a runtime-sized tensor.
/// The dynamic model vectorizes them with a scalar epilogue.
///
/// Bitwise neutral for the loops it is applied to: a vector lane computes
/// its element with exactly the scalar expression (GCC contracts a*b+c to
/// FMA in scalar and vector code alike), and without -ffast-math GCC never
/// reassociates a floating-point reduction, so the double-accumulated sums
/// stay in order.
///
/// GCC will not inline a callee whose optimize attribute differs from its
/// caller's, so tag only out-of-line entry points (or tag caller and callee
/// alike), never small helpers inlined into untagged code.
#if defined(__GNUC__) && !defined(__clang__)
#define FT_VECTORIZE __attribute__((optimize("vect-cost-model=dynamic")))
#else
#define FT_VECTORIZE
#endif
