// Streaming analysis engine — single-pass, all-guess CPA and DPA.
//
// Mangard-style incremental correlation: a Pearson correlation (and a
// difference-of-means bias) is a function of a handful of running sums,
// so an attack over ANY trace-count prefix can be emitted at ANY point
// of one linear pass over the acquisitions. The accumulators below hold
//
//   shared across all guesses:  n, sum_s[j], sum_s2[j]
//   per guess (CPA):            sum_h[g], sum_h2[g], sum_hs[g][j]
//   per guess+bit (DPA):        n1[b][g], sum1[b][g][j]
//
// and update them per added trace with a blocked, GEMM-like rank-B
// kernel over the contiguous SoA trace matrix. The per-sample sums are
// computed ONCE instead of once per guess (the batch path re-derived
// them 256 times), and every model and selection — each reads one
// plaintext byte — becomes a 256-entry-per-guess LUT, so no
// std::function call ever runs on the per-trace hot path.
//
// finalize()/recover() read the running sums without disturbing them,
// so measurements-to-disclosure curves and key-rank trajectories are
// byproducts of one pass: add traces up to each probe point, emit, and
// keep going — O(n·m·guesses) total instead of O(prefixes·n·m·guesses).
// add_prefix() is the one ingest entry point. Accumulation order is
// trace order regardless of blocking, so one-row add_prefix() calls,
// one bulk call, and the fused campaign's chunked feed all produce
// bit-identical results.
//
// The hot loops themselves live in qdi/dpa/kernels.hpp: a table with a
// portable and an AVX2 arm, picked once at load. Both arms vectorize
// over the sample axis only — each accumulator cell receives
// contributions in trace order with no reassociation and no FMA
// contraction — so the dispatch choice (and QDI_FORCE_PORTABLE) never
// changes a single result bit.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "qdi/dpa/cpa.hpp"
#include "qdi/dpa/dpa.hpp"
#include "qdi/dpa/kernels.hpp"
#include "qdi/dpa/selection.hpp"
#include "qdi/dpa/trace_set.hpp"

namespace qdi::dpa {

/// Named failure of OnlineCpa/OnlineDpa::restore_state — the hardened
/// deserialization contract the crash-safe shard runtime depends on.
/// Every malformed buffer (truncated at any byte, trailing garbage, a
/// foreign magic, or a snapshot taken under different guess/bit/sample
/// geometry) is rejected with the matching kind, and the accumulator is
/// left exactly as it was (restore parses into temporaries and commits
/// only after every check passed).
class StateError : public std::runtime_error {
 public:
  enum class Kind {
    Truncated,  ///< buffer ends before the declared fields
    Oversized,  ///< trailing bytes after the last field
    BadMagic,   ///< not a snapshot of this accumulator type
    Geometry,   ///< guess / selection-bit / sample-count mismatch
  };

  StateError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Stability accumulator of a measurements-to-disclosure scan: feed the
/// (success, prefix) outcome of each probe in increasing prefix order;
/// value() is the earliest prefix from which EVERY probe so far
/// succeeded (0 if the tail is not all-success). Shared by the batch
/// MTD functions and the fused campaign so the stability rule cannot
/// drift between them.
class MtdScan {
 public:
  void probe(bool success, std::size_t prefix) noexcept {
    if (success && candidate_ == 0) candidate_ = prefix;
    if (!success) candidate_ = 0;
  }
  std::size_t value() const noexcept { return candidate_; }

 private:
  std::size_t candidate_ = 0;
};

/// All-guess streaming CPA accumulator.
class OnlineCpa {
 public:
  /// The hypothesis LUT is tabulated here, once.
  OnlineCpa(LeakageModel model, unsigned num_guesses);

  /// Feed rows [lo, hi) of a trace set through the blocked kernel.
  /// Sample geometry is fixed by the first call. Throws
  /// std::invalid_argument when the model's plaintext byte lies outside
  /// the set's plaintext stride, or the sample count changed.
  void add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi);

  std::size_t count() const noexcept { return n_; }
  unsigned num_guesses() const noexcept { return guesses_; }

  /// Emit the CPA result for the traces fed so far (optionally windowed
  /// to samples [window_lo, window_hi)). Non-destructive: keep adding
  /// traces afterwards for the next prefix probe.
  CpaResult finalize(std::size_t window_lo = 0,
                     std::size_t window_hi = 0) const;

  /// Full correlation trace rho[j] of one guess at the current prefix.
  std::vector<double> correlation_trace(unsigned guess) const;

  /// Fold another accumulator's traces into this one. Every statistic is
  /// an additive running sum, so merging N disjoint partial passes is
  /// equivalent to one pass over the union — up to floating-point
  /// re-association (sums are added blockwise instead of trace by
  /// trace), which perturbs results at the 1e-12 level, not the
  /// attack-outcome level (tests/test_online_merge.cpp). Both sides must
  /// share num_guesses and sample geometry (an empty side merges
  /// trivially); `other` must have been built over the same leakage
  /// model for the result to mean anything — that cannot be checked
  /// here. Throws std::invalid_argument on mismatched geometry.
  void merge(const OnlineCpa& other);

  /// Compact byte snapshot of the accumulator state (counts + running
  /// sums; the model is NOT serialized — it is code, not data).
  /// restore_state() requires an accumulator constructed with the same
  /// model and num_guesses, and replaces its state wholesale. Round-trip
  /// is exact: serialize/restore reproduces bit-identical results. A
  /// truncated, oversized, foreign, or geometry-mismatched buffer throws
  /// StateError with the matching kind and leaves this accumulator
  /// untouched (tests/test_online_merge.cpp fuzzes every truncation
  /// length).
  std::vector<std::uint8_t> serialize_state() const;
  void restore_state(std::span<const std::uint8_t> bytes);

  /// Drop all accumulated traces but keep the model, LUT, and (once
  /// fixed) the sample geometry and capacity — lets a caller reuse one
  /// accumulator across runs with zero steady-state allocation.
  void reset() noexcept;

  /// Pin a specific kernel arm (differential-testing seam; production
  /// accumulators keep the load-time kernels::active() pick). The arms
  /// are bit-identical, so this never changes results.
  void set_kernels(const kernels::KernelTable& k) noexcept { kernels_ = &k; }
  const char* kernel_name() const noexcept { return kernels_->name; }

 private:
  void ensure_geometry(std::size_t m);
  void ingest(const double* const* rows, const double* const* hyp,
              std::size_t cnt);
  /// The cached per-sample variance scan shared by finalize() and
  /// correlation_trace(); recomputed only after ingest/merge/restore
  /// invalidated it, so repeated prefix probes in MTD scans pay it once.
  const std::vector<double>& var_s_cache() const;

  LeakageModel model_;
  unsigned guesses_;
  const kernels::KernelTable* kernels_ = &kernels::active();
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::vector<double> lut_;       ///< hyp[v*guesses + g]
  std::vector<double> sum_s_, sum_s2_;  ///< per sample, shared by all guesses
  std::vector<double> sum_h_, sum_h2_;  ///< per guess
  std::vector<double> sum_hs_;          ///< guesses × m
  mutable std::vector<double> var_cache_;  ///< per-sample variances at n_
  mutable std::vector<double> rho_scratch_;  ///< finalize() scan buffer
  mutable bool var_valid_ = false;
};

/// All-guess, multi-bit streaming difference-of-means DPA accumulator.
class OnlineDpa {
 public:
  OnlineDpa(std::vector<SelectionFn> bits, unsigned num_guesses);

  /// Feed rows [lo, hi); see OnlineCpa::add_prefix (here every
  /// selection bit's plaintext byte is checked).
  void add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi);

  std::size_t count() const noexcept { return n_; }
  unsigned num_guesses() const noexcept { return guesses_; }
  std::size_t num_bits() const noexcept { return bits_.size(); }

  /// Bias signal T[j] = A0[j] - A1[j] of one (guess, bit) at the current
  /// prefix, with peak statistics restricted to `window`.
  BiasResult bias(unsigned guess, std::size_t bit = 0,
                  SampleWindow window = {}) const;

  /// Rank all guesses by (summed, if multi-bit) bias peak at the current
  /// prefix — the streaming recover_key/recover_key_multibit.
  KeyRecoveryResult recover(SampleWindow window = {}) const;

  /// Rank all guesses by the bias peak of ONE bit — what the MTD scan
  /// uses (the paper's historical single-bit D-function attack).
  KeyRecoveryResult recover_single(std::size_t bit,
                                   SampleWindow window = {}) const;

  /// Fold another accumulator's traces into this one; see
  /// OnlineCpa::merge for the contract (here both sides must also share
  /// the selection-bit count).
  void merge(const OnlineDpa& other);

  /// State snapshot / restore; see OnlineCpa (same StateError contract:
  /// malformed buffers are rejected wholesale, the accumulator keeps its
  /// prior state; a set-1 count above the trace count is a Geometry
  /// error). restore_state() requires the same selection bits and
  /// num_guesses at construction.
  std::vector<std::uint8_t> serialize_state() const;
  void restore_state(std::span<const std::uint8_t> bytes);

  /// Drop accumulated traces, keep selections/LUT/geometry; see
  /// OnlineCpa::reset().
  void reset() noexcept;

  /// Pin a kernel arm; see OnlineCpa::set_kernels().
  void set_kernels(const kernels::KernelTable& k) noexcept { kernels_ = &k; }
  const char* kernel_name() const noexcept { return kernels_->name; }

 private:
  void ensure_geometry(std::size_t m);
  void ingest(const double* const* rows, const std::uint8_t* const* pts,
              std::size_t cnt);
  double peak_of(unsigned guess, std::size_t bit, SampleWindow window) const;

  std::vector<SelectionFn> bits_;
  unsigned guesses_;
  const kernels::KernelTable* kernels_ = &kernels::active();
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::vector<double> lut_;      ///< d[(b*256 + v)*guesses + g] in {0.0, 1.0}
  std::vector<double> sum_s_;       ///< per sample, shared
  std::vector<std::uint32_t> n1_;   ///< bits × guesses
  std::vector<double> sum1_;        ///< bits × guesses × m
};

}  // namespace qdi::dpa
