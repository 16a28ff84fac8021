#include "qdi/dpa/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "qdi/util/cpu.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QDI_KERNELS_X86 1
#include <immintrin.h>
#endif

// The AVX2 arm performs, per accumulator cell, the exact same sequence
// of IEEE operations in the exact same order as the portable arm — it
// only packs independent sample-axis lanes into one register.
// Multiplies and adds stay separate (its target set excludes "fma", so
// the compiler cannot contract them), divisions stay divisions, and
// scalar tails repeat the identical expressions.
// tests/test_dpa_kernels.cpp pins the two arms against each other bit
// for bit; treat any divergence there as a bug in this file.

namespace qdi::dpa::kernels {

namespace {

// ---------------------------------------------------------------- portable

void shift_span_portable(double* dst, const double* src, const double* ref,
                         std::size_t m, std::size_t* lo, std::size_t* hi) {
  // Only samples outside the current span can widen it: scan [0, lo)
  // from the left and [hi, m) from the right, comparing without
  // storing. An empty span scans the row once from the left, and from
  // the right only down to the first live sample found.
  std::size_t a = *lo, b = *hi;
  if (a == b) {
    a = m;
    b = 0;
  }
  std::size_t f = 0;
  while (f < a && src[f] - ref[f] == 0.0) ++f;
  const std::size_t floor = std::max(b, f);
  std::size_t k = m;
  while (k > floor && src[k - 1] - ref[k - 1] == 0.0) --k;
  if (f < a) a = f;
  if (k > b) b = k;
  if (a >= b) return;  // no live sample yet
  *lo = a;
  *hi = b;
  for (std::size_t j = a; j < b; ++j) dst[j] = src[j] - ref[j];
}

void cpa_moments_portable(double* sum_s, double* sum_s2,
                          const double* const* rows, std::size_t cnt,
                          std::size_t m) {
  for (std::size_t c = 0; c < cnt; ++c) {
    const double* s = rows[c];
    for (std::size_t j = 0; j < m; ++j) {
      sum_s[j] += s[j];
      sum_s2[j] += s[j] * s[j];
    }
  }
}

void cpa_rank_update_portable(double* sum_hs, const double* const* rows,
                              const double* const* hyp, std::size_t cnt,
                              unsigned guesses, std::size_t m,
                              std::size_t ld) {
  for (unsigned g = 0; g < guesses; ++g) {
    double* dst = sum_hs + static_cast<std::size_t>(g) * ld;
    for (std::size_t c = 0; c < cnt; ++c) {
      const double h = hyp[c][g];
      if (h == 0.0) continue;  // zero hypothesis contributes nothing
      const double* s = rows[c];
      for (std::size_t j = 0; j < m; ++j) dst[j] += h * s[j];
    }
  }
}

void row_add_portable(double* dst, const double* src, std::size_t m) {
  for (std::size_t j = 0; j < m; ++j) dst[j] += src[j];
}

void masked_sum_portable(double* dst, const double* const* rows,
                         const double* mask, std::size_t cnt, std::size_t m) {
  for (std::size_t c = 0; c < cnt; ++c) {
    const double w = mask[c];
    const double* s = rows[c];
    for (std::size_t j = 0; j < m; ++j) dst[j] += w * s[j];
  }
}

void corr_scan_portable(double* rho, const double* hs, const double* sum_s,
                        const double* var_s, double sum_h, double var_h,
                        double nn, std::size_t m) {
  for (std::size_t j = 0; j < m; ++j) {
    if (var_s[j] > 0.0) {
      const double cov = hs[j] - sum_h * sum_s[j] / nn;
      rho[j] = cov / std::sqrt(var_h * var_s[j]);
    } else {
      rho[j] = 0.0;
    }
  }
}

constexpr KernelTable kPortable = {
    "portable",          &shift_span_portable, &cpa_moments_portable,
    &cpa_rank_update_portable, &row_add_portable, &masked_sum_portable,
    &corr_scan_portable,
};

#ifdef QDI_KERNELS_X86

// ------------------------------------------------------------------- avx2
// target("avx2") only — deliberately NOT "fma": mul and add must round
// separately to match the portable arm bit for bit.

/// Bit i set when src[i] - ref[i] != 0.0, for i < 4 (unordered, so
/// NaN counts as nonzero like the portable arm's scalar test).
__attribute__((target("avx2"))) inline int live4(const double* src,
                                                 const double* ref) {
  return _mm256_movemask_pd(
      _mm256_cmp_pd(_mm256_sub_pd(_mm256_loadu_pd(src), _mm256_loadu_pd(ref)),
                    _mm256_setzero_pd(), _CMP_NEQ_UQ));
}

// The same subtraction per sample, and the same span: the scans test
// four differences per compare and stop at the same first/last index.
__attribute__((target("avx2"))) void shift_span_avx2(
    double* dst, const double* src, const double* ref, std::size_t m,
    std::size_t* lo, std::size_t* hi) {
  std::size_t a = *lo, b = *hi;
  if (a == b) {
    a = m;
    b = 0;
  }
  std::size_t f = 0;
  for (; f + 4 <= a; f += 4) {
    const int nz = live4(src + f, ref + f);
    if (nz != 0) {
      f += static_cast<std::size_t>(__builtin_ctz(static_cast<unsigned>(nz)));
      break;
    }
  }
  while (f < a && src[f] - ref[f] == 0.0) ++f;
  const std::size_t floor = std::max(b, f);
  std::size_t k = m;
  for (; k >= floor + 4; k -= 4) {
    const int nz = live4(src + k - 4, ref + k - 4);
    if (nz != 0) {
      k = k - 3 +
          static_cast<std::size_t>(31 - __builtin_clz(static_cast<unsigned>(nz)));
      break;
    }
  }
  while (k > floor && src[k - 1] - ref[k - 1] == 0.0) --k;
  if (f < a) a = f;
  if (k > b) b = k;
  if (a >= b) return;
  *lo = a;
  *hi = b;
  std::size_t j = a;
  for (; j + 4 <= b; j += 4)
    _mm256_storeu_pd(dst + j, _mm256_sub_pd(_mm256_loadu_pd(src + j),
                                            _mm256_loadu_pd(ref + j)));
  for (; j < b; ++j) dst[j] = src[j] - ref[j];
}

__attribute__((target("avx2"))) void cpa_moments_avx2(
    double* sum_s, double* sum_s2, const double* const* rows, std::size_t cnt,
    std::size_t m) {
  for (std::size_t c = 0; c < cnt; ++c) {
    const double* s = rows[c];
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const __m256d v = _mm256_loadu_pd(s + j);
      _mm256_storeu_pd(sum_s + j,
                       _mm256_add_pd(_mm256_loadu_pd(sum_s + j), v));
      _mm256_storeu_pd(sum_s2 + j, _mm256_add_pd(_mm256_loadu_pd(sum_s2 + j),
                                                 _mm256_mul_pd(v, v)));
    }
    for (; j < m; ++j) {
      sum_s[j] += s[j];
      sum_s2[j] += s[j] * s[j];
    }
  }
}

// Row-tiled accumulation shared by the two read kernels: for each
// sample tile, dst stays in registers while the k rows are added in
// order, acc = acc + w[i] * rows[i][j]. Per cell that is exactly the
// portable arm's sequence of mul-then-add in row order — only the dst
// loads and stores between rows are gone, which is what bounds a read
// that folds many class rows into the same accumulator row.
__attribute__((target("avx2"))) void tiled_rows_avx2(
    double* dst, const double* const* rows, const double* w, std::size_t k,
    std::size_t m) {
  std::size_t j = 0;
  for (; j + 16 <= m; j += 16) {
    __m256d a0 = _mm256_loadu_pd(dst + j);
    __m256d a1 = _mm256_loadu_pd(dst + j + 4);
    __m256d a2 = _mm256_loadu_pd(dst + j + 8);
    __m256d a3 = _mm256_loadu_pd(dst + j + 12);
    for (std::size_t i = 0; i < k; ++i) {
      const __m256d wv = _mm256_set1_pd(w[i]);
      const double* s = rows[i] + j;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(wv, _mm256_loadu_pd(s)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(wv, _mm256_loadu_pd(s + 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(wv, _mm256_loadu_pd(s + 8)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(wv, _mm256_loadu_pd(s + 12)));
    }
    _mm256_storeu_pd(dst + j, a0);
    _mm256_storeu_pd(dst + j + 4, a1);
    _mm256_storeu_pd(dst + j + 8, a2);
    _mm256_storeu_pd(dst + j + 12, a3);
  }
  for (; j + 4 <= m; j += 4) {
    __m256d a = _mm256_loadu_pd(dst + j);
    for (std::size_t i = 0; i < k; ++i)
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_set1_pd(w[i]),
                                         _mm256_loadu_pd(rows[i] + j)));
    _mm256_storeu_pd(dst + j, a);
  }
  for (; j < m; ++j) {
    double a = dst[j];
    for (std::size_t i = 0; i < k; ++i) a += w[i] * rows[i][j];
    dst[j] = a;
  }
}

/// Rows per tiled pass; longer row lists are walked in order, in chunks.
constexpr std::size_t kTileRows = 32;

// The CPA read: guesses x m accumulator rows, every folded class row.
// Per guess, the rows with a nonzero hypothesis (the portable arm's
// skip decision) are gathered in order and added tile by tile.
__attribute__((target("avx2"))) void cpa_rank_update_avx2(
    double* sum_hs, const double* const* rows, const double* const* hyp,
    std::size_t cnt, unsigned guesses, std::size_t m, std::size_t ld) {
  const double* nz_rows[kTileRows];
  double nz_h[kTileRows];
  for (unsigned g = 0; g < guesses; ++g) {
    double* dst = sum_hs + static_cast<std::size_t>(g) * ld;
    for (std::size_t c0 = 0; c0 < cnt; c0 += kTileRows) {
      const std::size_t c1 = std::min(cnt, c0 + kTileRows);
      std::size_t k = 0;
      for (std::size_t c = c0; c < c1; ++c) {
        const double h = hyp[c][g];
        if (h == 0.0) continue;
        nz_rows[k] = rows[c];
        nz_h[k++] = h;
      }
      if (k > 0) tiled_rows_avx2(dst, nz_rows, nz_h, k, m);
    }
  }
}

__attribute__((target("avx2"))) void row_add_avx2(double* dst,
                                                  const double* src,
                                                  std::size_t m) {
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4)
    _mm256_storeu_pd(
        dst + j, _mm256_add_pd(_mm256_loadu_pd(dst + j),
                               _mm256_loadu_pd(src + j)));
  for (; j < m; ++j) dst[j] += src[j];
}

__attribute__((target("avx2"))) void masked_sum_avx2(
    double* dst, const double* const* rows, const double* mask,
    std::size_t cnt, std::size_t m) {
  for (std::size_t c0 = 0; c0 < cnt; c0 += kTileRows) {
    const std::size_t k = std::min(kTileRows, cnt - c0);
    tiled_rows_avx2(dst, rows + c0, mask + c0, k, m);
  }
}

__attribute__((target("avx2"))) void corr_scan_avx2(
    double* rho, const double* hs, const double* sum_s, const double* var_s,
    double sum_h, double var_h, double nn, std::size_t m) {
  const __m256d hv = _mm256_set1_pd(sum_h);
  const __m256d nv = _mm256_set1_pd(nn);
  const __m256d vh = _mm256_set1_pd(var_h);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d vs = _mm256_loadu_pd(var_s + j);
    const __m256d cov = _mm256_sub_pd(
        _mm256_loadu_pd(hs + j),
        _mm256_div_pd(_mm256_mul_pd(hv, _mm256_loadu_pd(sum_s + j)), nv));
    const __m256d r =
        _mm256_div_pd(cov, _mm256_sqrt_pd(_mm256_mul_pd(vh, vs)));
    _mm256_storeu_pd(rho + j,
                     _mm256_and_pd(_mm256_cmp_pd(vs, zero, _CMP_GT_OQ), r));
  }
  for (; j < m; ++j) {
    if (var_s[j] > 0.0) {
      const double cov = hs[j] - sum_h * sum_s[j] / nn;
      rho[j] = cov / std::sqrt(var_h * var_s[j]);
    } else {
      rho[j] = 0.0;
    }
  }
}

constexpr KernelTable kAvx2 = {
    "avx2",        &shift_span_avx2, &cpa_moments_avx2, &cpa_rank_update_avx2,
    &row_add_avx2, &masked_sum_avx2, &corr_scan_avx2,
};

#endif  // QDI_KERNELS_X86

}  // namespace

bool supported(Kind k) noexcept {
  if (k == Kind::Portable) return true;
#ifdef QDI_KERNELS_X86
  return util::cpu_features().avx2;
#else
  return false;
#endif
}

const KernelTable* table(Kind k) noexcept {
  if (!supported(k)) return nullptr;
#ifdef QDI_KERNELS_X86
  if (k == Kind::Avx2) return &kAvx2;
#endif
  return &kPortable;
}

const KernelTable& active() noexcept {
  static const KernelTable* const picked =
      !util::force_portable() && supported(Kind::Avx2)
          ? table(Kind::Avx2)
          : table(Kind::Portable);
  return *picked;
}

}  // namespace qdi::dpa::kernels
