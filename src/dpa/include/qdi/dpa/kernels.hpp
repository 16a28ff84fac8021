// Runtime-dispatched SIMD kernels for the streaming analysis engine.
//
// dpa::OnlineCpa / dpa::OnlineDpa keep per-plaintext-class sums of
// reference-shifted samples over a live-sample span
// (qdi/dpa/online.hpp), so their loops split into two sides:
//
//   ingest, once per trace:  shift_span (t - ref over all m samples,
//                            widening the span), then, over the span
//                            only, cpa_moments (CPA per-sample
//                            moments) and row_add (DPA sum_s, the
//                            class-row add);
//   reads, once per folded class row:
//                            cpa_rank_update (class rows x LUT rows
//                            into the guesses x m CPA cache),
//                            masked_sum (class rows x D column into the
//                            DPA set-1 cache), corr_scan (finalize).
//
// A read folds at most min(traces since the last read, classes) rows,
// so the read side carries the guess-proportional work. Each kernel
// has two arms. The portable arm is the oracle and the production arm
// on CPUs without AVX2; the AVX2 arm is the production arm everywhere
// else. The arm is picked ONCE at load via util::cpu_features() — the
// same pattern as util::Sha256's SHA-NI compressor — and
// QDI_FORCE_PORTABLE pins the portable arm everywhere.
//
// Determinism contract (why the arms are interchangeable): every
// kernel vectorizes over the SAMPLE axis j only. Each accumulator cell
// (g, j) still receives its contributions in strict row order, one
// rounding per add and one per multiply (mul-then-add, never FMA —
// the AVX2 arm excludes "fma" from its target set so the compiler
// cannot contract), and the scalar tail performs the identical
// operations on the identical values. There is no reassociation
// anywhere, so the AVX2 arm is BIT-IDENTICAL to the portable arm — a
// property tests/test_dpa_kernels.cpp asserts, state and read results
// alike, on awkward geometries rather than assumes.
#pragma once

#include <cstddef>

namespace qdi::dpa::kernels {

/// One implementation of every analysis hot loop. All pointers are
/// non-null in any table returned by table() / active().
struct KernelTable {
  const char* name;  ///< "portable" / "avx2"

  /// Reference shift over the live span: [*lo, *hi) is widened to
  /// cover every j < m with src[j] - ref[j] != 0.0 (NaN counts as
  /// nonzero; an empty range, *lo == *hi, is replaced by the hull of
  /// those samples and stays as it is when there are none), then
  /// dst[j] = src[j] - ref[j] for every j in the widened range. Other
  /// entries of dst are left as they were: outside the span every
  /// difference is zero, and only compared, never stored.
  void (*shift_span)(double* dst, const double* src, const double* ref,
                     std::size_t m, std::size_t* lo, std::size_t* hi);

  /// CPA per-sample moments: for each trace c in order,
  /// sum_s[j] += s[j]; sum_s2[j] += s[j]*s[j].
  void (*cpa_moments)(double* sum_s, double* sum_s2,
                      const double* const* rows, std::size_t cnt,
                      std::size_t m);

  /// CPA rank update: for each guess g, dst = sum_hs + g*ld; for each
  /// row c in order (a class sum, hyp[c] its LUT row): h = hyp[c][g];
  /// if h == 0.0 the row is skipped (identical skip decision in every
  /// arm); else dst[j] += h * s[j] for j < m.
  void (*cpa_rank_update)(double* sum_hs, const double* const* rows,
                          const double* const* hyp, std::size_t cnt,
                          unsigned guesses, std::size_t m, std::size_t ld);

  /// dst[j] += src[j] (one trace row into a per-sample or class sum).
  void (*row_add)(double* dst, const double* src, std::size_t m);

  /// DPA partitioned sum, branch-free: for each row c in order (a class
  /// sum, mask[c] its D decision), dst[j] += mask[c] * rows[c][j], with
  /// mask[c] in {0.0, 1.0}.
  /// Bit-identical to the historical "if (d) dst[j] += s[j]" loop:
  /// 1.0*x == x exactly, and adding the resulting +/-0.0 of a masked-
  /// out trace never changes a finite accumulator (an accumulator
  /// seeded with +0.0 can never become -0.0 under round-to-nearest).
  void (*masked_sum)(double* dst, const double* const* rows,
                     const double* mask, std::size_t cnt, std::size_t m);

  /// Signed correlation scan for one guess over a sample range:
  /// cov = hs[j] - sum_h * sum_s[j] / nn;
  /// rho[j] = var_s[j] > 0.0 ? cov / sqrt(var_h * var_s[j]) : 0.0.
  /// The zeroed lanes can never win finalize()'s strict max scan, so
  /// the select reproduces the historical "skip non-positive variance"
  /// semantics bit-for-bit.
  void (*corr_scan)(double* rho, const double* hs, const double* sum_s,
                    const double* var_s, double sum_h, double var_h,
                    double nn, std::size_t m);
};

enum class Kind { Portable, Avx2 };

/// True when this build/CPU can run the given arm (Portable: always).
bool supported(Kind k) noexcept;

/// The named arm, or nullptr when unsupported on this build/CPU.
/// Differential tests use this to pit the two arms against each other.
const KernelTable* table(Kind k) noexcept;

/// The arm every accumulator uses by default: AVX2 when supported,
/// picked once at load; QDI_FORCE_PORTABLE pins Portable.
const KernelTable& active() noexcept;

}  // namespace qdi::dpa::kernels
