// Streaming analysis engine — single-pass, all-guess CPA and DPA.
//
// Mangard-style incremental correlation: a Pearson correlation (and a
// difference-of-means bias) is a function of a handful of running sums,
// so an attack over ANY trace-count prefix can be emitted at ANY point
// of one linear pass over the acquisitions.
//
// Every predictor reads ONE plaintext byte, so the per-guess sums
// factor through plaintext classes (Bottinelli & Bos, JCEN 2017). Two
// byte values share a class when the predictor LUTs give them the same
// value for every guess and every bit; the map is derived from the
// predictors at construction (64 classes for the DES S-box predictors,
// where v and v^0x40 coincide; 256 for the AES ones).
//
// Shifted state. Both statistics are invariant under a per-sample
// shift, so the sums are kept relative to a reference row: ref = the
// first ingested trace, t'[j] = t[j] - ref[j]. The state is
//
//   per sample:                  n, ref[j], sum_s[j] = sum t'[j]
//                                (CPA also sum_s2[j] = sum t'[j]^2)
//   per predictor byte, class c: count[c] (u64),
//                                S[c][j] = sum of t' over class c
//
// Live span. [lo, hi) is the hull of the samples where some ingested
// trace had t' != 0.0. Outside it every shifted sum is exactly +0.0,
// so all per-sample work is restricted to it and skipping the rest is
// bit-exact with respect to a dense shifted update. A sample where
// every trace equals the first — on a balanced QDI netlist in this
// noiseless model, every sample — has exactly zero variance and zero
// class-sum differences, so it reads exactly 0.0 (correlation and
// bias), never raw-moment cancellation residue.
//
// Ingest, per trace: one shift_span pass over all m samples (t - ref,
// widening the span), then, over [lo, hi) only, one row_add into
// S[class(pt)] plus the per-sample moments, always in trace order.
// The state is therefore a function of the trace stream alone:
// blocking, interleaved reads, thread counts and kernel arms never
// change a bit of serialize_state().
//
// Reads (finalize, correlation_trace, bias, recover, recover_single)
// go through a combined cache, allocated on the first read:
//
//   CPA:  sum_hs[g][j] = sum_c h(c,g)·S[c][j],  sum_h, sum_h2 from counts
//   DPA:  sum1[b][g][j] = sum_c D_b(c,g)·S[c][j], n1[b][g] from counts
//
// The CPA hypothesis h is the model's value centred per guess on its
// mean over the 256 byte values (correlation is invariant under that
// shift), so sum_hs does not carry sum_h times the reference offset.
//
// The first read after construction, merge(), restore_state() or
// reset() builds the cache from every non-empty class, in class order.
// While a cache exists, ingest also adds each trace into a pending row
// of its class, and a later read folds only the classes touched since
// the previous read. Folds, the variance cache and the correlation and
// bias scans cover the span (intersected with the read's window) only,
// so a read costs at most min(Δn, V)·G·(hi - lo) multiply-adds (V
// classes, G guesses; DPA times the bit count) — never more than a
// per-trace all-guess update of the same Δn traces — and a read with
// nothing pending is free.
//
// Determinism contract: the state is schedule-free (above). Read
// results are a function of the trace stream AND the read schedule,
// at rounding level: a fold adds each class's pending sum separately
// instead of its total, so a read every k traces ends within ~1e-12
// relative of one final read (tests/test_online_analysis.cpp), with
// the same discrete outcomes on leaking targets. Equal streams read at
// equal points give bit-identical results.
//
// The reads are const but update the cache, so one accumulator must
// not be read from two threads at once.
//
// The hot loops live in qdi/dpa/kernels.hpp: a table with a portable
// and an AVX2 arm, picked once at load. Both arms vectorize over the
// sample axis only — each cell receives its contributions in the same
// order with no reassociation and no FMA contraction — so the dispatch
// choice (and QDI_FORCE_PORTABLE) never changes a single result bit.
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

namespace detail {

/// Per-class running sums of one plaintext byte (see the file comment).
/// Shared by OnlineCpa (one table) and OnlineDpa (one per distinct
/// byte its selection bits read). Rows are m samples wide; the owner
/// passes its live span [lo, hi), and every row is +0.0 outside it.
class ClassTable {
 public:
  /// The class key of byte value v is the `width` LUT entries at
  /// block + v * width of every block; values with bitwise-equal keys
  /// share a class. Classes are numbered in order of their smallest
  /// member.
  ClassTable(int byte, const std::vector<const double*>& blocks,
             std::size_t width);

  int byte() const noexcept { return byte_; }
  std::size_t num_classes() const noexcept { return rep_.size(); }
  /// Smallest byte value of class c (its LUT row stands for the class).
  std::uint8_t rep(std::size_t c) const noexcept { return rep_[c]; }
  const std::vector<std::uint64_t>& counts() const noexcept { return count_; }
  /// Sum row of class c, or nullptr while no trace of c was added (the
  /// rows are allocated on first touch, so a short run that sees a few
  /// classes never pays for the whole table).
  const double* row(std::size_t c) const noexcept {
    return sum_[c].empty() ? nullptr : sum_[c].data();
  }

  /// Add samples [lo, hi) of one shifted trace row of plaintext byte
  /// value v. With `pending`, they are also added to its class's
  /// pending row for the next fold.
  void add(const double* row, std::uint8_t v, std::size_t m, std::size_t lo,
           std::size_t hi, const kernels::KernelTable& k, bool pending);
  /// The rows a read folds, in class order, each offset to sample `lo`,
  /// with their classes' representatives: every non-empty class's
  /// total (`full`), or the pending rows of the classes touched since
  /// the last read. Pending rows stay valid until clear_pending().
  void fold_rows(bool full, std::size_t m, std::size_t lo,
                 std::vector<const double*>& rows,
                 std::vector<std::uint8_t>& reps) const;
  /// Drop the pending rows, zeroing their samples [lo, hi) (a span
  /// covering every span they were added under) so the next touch
  /// starts from +0.0.
  void clear_pending(std::size_t m, std::size_t lo, std::size_t hi) const;

  /// counts += o.counts; over [lo, hi), sums += o.sums + o.count·delta,
  /// i.e. o's rows rebased from o's reference row onto this one's
  /// (delta = o.ref - ref; the same class map).
  void merge(const ClassTable& o, std::size_t m, std::size_t lo,
             std::size_t hi, const double* delta);
  /// Replace counts and sums with a snapshot's (classes × (hi - lo)
  /// flat sums over the span; sizes already checked). Rows of empty
  /// classes are not kept. The owner clears pending rows first, under
  /// the geometry they were added with.
  void assign(std::vector<std::uint64_t> counts,
              const std::vector<double>& sums, std::size_t m, std::size_t lo,
              std::size_t hi);
  /// Zero counts and sums; keeps capacity. The owner clears pending
  /// rows first, as for assign().
  void reset() noexcept;

 private:
  int byte_;
  std::uint8_t cls_[256];
  std::vector<std::uint8_t> rep_;
  std::vector<std::uint64_t> count_;
  std::vector<std::vector<double>> sum_;  ///< per class: m samples or empty
  // Pending rows of the classes touched since the last read: slot_[c]
  // indexes pending_ (-1 = untouched); sized by touch, not by classes.
  // Every sample of pending_ outside the live rows' spans is +0.0.
  mutable std::vector<std::int32_t> slot_;
  mutable std::vector<double> pending_;
  mutable std::size_t used_ = 0;
};

}  // namespace detail

/// All-guess streaming CPA accumulator.
class OnlineCpa {
 public:
  /// The hypothesis LUT and the class map are tabulated here, once.
  OnlineCpa(LeakageModel model, unsigned num_guesses);

  /// Feed rows [lo, hi) of a trace set: one class-row add per trace.
  /// Sample geometry is fixed by the first call. Throws
  /// std::invalid_argument when the model's plaintext byte lies outside
  /// the set's plaintext stride, or the sample count changed.
  void add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi);

  std::size_t count() const noexcept { return n_; }
  unsigned num_guesses() const noexcept { return guesses_; }
  /// Plaintext classes of the model (byte values it cannot tell apart
  /// under any guess share one).
  std::size_t num_classes() const noexcept { return table_.num_classes(); }
  /// The live span [span_lo, span_hi): the hull of the samples where
  /// some ingested trace differed from the reference row (empty while
  /// none did). Samples outside it read exactly 0.0.
  std::size_t span_lo() const noexcept { return lo_; }
  std::size_t span_hi() const noexcept { return hi_; }

  /// Emit the CPA result for the traces fed so far (optionally windowed
  /// to samples [window_lo, window_hi)). Non-destructive: keep adding
  /// traces afterwards for the next prefix probe.
  CpaResult finalize(std::size_t window_lo = 0,
                     std::size_t window_hi = 0) const;

  /// Full correlation trace rho[j] of one guess at the current prefix.
  std::vector<double> correlation_trace(unsigned guess) const;

  /// Fold another accumulator's traces into this one: `other`'s sums
  /// are rebased onto this side's reference row (delta = other.ref -
  /// ref: S += count·delta, sum_s += n·delta, sum_s2 += 2·delta·sum_s +
  /// n·delta², a no-op where delta == 0) and added, and the span
  /// becomes the hull of both spans and of {delta != 0}. An empty side
  /// adopts the other side's reference. Merging N disjoint partial
  /// passes is therefore equivalent to one pass over the union — up to
  /// floating-point re-association (sums are added blockwise instead of
  /// trace by trace, and rebased), which perturbs results at the 1e-12
  /// level, not the attack-outcome level (tests/test_online_merge.cpp).
  /// Both sides must
  /// share num_guesses, class map and sample geometry (an empty side
  /// merges trivially); `other` must have been built over the same
  /// leakage model for the result to mean anything — that cannot be
  /// checked here. Throws std::invalid_argument on mismatched geometry.
  void merge(const OnlineCpa& other);

  /// Compact byte snapshot of the accumulator state: the reference row,
  /// the span, counts, and moments and class sums over the span only
  /// (the model is NOT serialized — it is code, not data).
  /// restore_state() requires an accumulator constructed with the same
  /// model and num_guesses, and replaces its state wholesale. Round-trip
  /// is exact: serialize/restore reproduces bit-identical results. A
  /// truncated, oversized, foreign, or geometry-mismatched buffer (class
  /// counts that do not sum to the trace count included) throws
  /// StateError with the matching kind and leaves this accumulator
  /// untouched (tests/test_online_merge.cpp fuzzes every truncation
  /// length). A span outside [0, m], or a reference row that does not
  /// match the sample and trace counts, is a Geometry error.
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
  /// Bring the read cache up to date (build or fold; see file comment).
  void sync() const;
  /// The cached per-sample variance scan shared by finalize() and
  /// correlation_trace(); recomputed only after ingest/merge/restore
  /// invalidated it, so repeated prefix probes in MTD scans pay it once.
  const std::vector<double>& var_s_cache() const;

  LeakageModel model_;
  unsigned guesses_;
  const kernels::KernelTable* kernels_ = &kernels::active();
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::size_t lo_ = 0, hi_ = 0;   ///< live span (see the file comment)
  std::vector<double> lut_;       ///< hyp[v*guesses + g], centred per g
  detail::ClassTable table_;
  std::vector<double> ref_;       ///< the first trace (valid while n_ > 0)
  std::vector<double> sum_s_, sum_s2_;  ///< per sample, shared by all guesses
  std::vector<double> shift_;     ///< one shifted row (ingest/merge scratch)
  // Read cache (see the file comment).
  mutable bool cache_live_ = false;
  mutable std::vector<double> sum_h_, sum_h2_;  ///< per guess
  mutable std::vector<double> sum_hs_;          ///< guesses × m
  mutable std::vector<const double*> fold_rows_;
  mutable std::vector<std::uint8_t> fold_reps_;
  mutable std::vector<double> var_cache_;  ///< per-sample variances at n_
  mutable std::vector<double> rho_scratch_;  ///< finalize() scan buffer
  mutable bool var_valid_ = false;
};

/// All-guess, multi-bit streaming difference-of-means DPA accumulator.
class OnlineDpa {
 public:
  OnlineDpa(std::vector<SelectionFn> bits, unsigned num_guesses);

  /// Feed rows [lo, hi); see OnlineCpa::add_prefix (here every
  /// selection bit's plaintext byte is checked, and each trace adds one
  /// class row per distinct byte the bits read).
  void add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi);

  std::size_t count() const noexcept { return n_; }
  unsigned num_guesses() const noexcept { return guesses_; }
  std::size_t num_bits() const noexcept { return bits_.size(); }
  /// Plaintext classes of the byte that selection bit `bit` reads (all
  /// bits reading that byte are considered together).
  std::size_t num_classes(std::size_t bit = 0) const noexcept {
    return tables_[table_of_[bit]].num_classes();
  }
  /// The live span; see OnlineCpa::span_lo().
  std::size_t span_lo() const noexcept { return lo_; }
  std::size_t span_hi() const noexcept { return hi_; }

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
  /// prior state; class counts that do not sum to the trace count are a
  /// Geometry error). restore_state() requires the same selection bits
  /// and num_guesses at construction.
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
  void sync() const;
  double peak_of(unsigned guess, std::size_t bit, SampleWindow window) const;

  std::vector<SelectionFn> bits_;
  unsigned guesses_;
  const kernels::KernelTable* kernels_ = &kernels::active();
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  std::size_t lo_ = 0, hi_ = 0;  ///< live span
  std::vector<double> lut_;      ///< d[(b*256 + v)*guesses + g] in {0.0, 1.0}
  std::vector<detail::ClassTable> tables_;  ///< one per distinct byte
  std::vector<std::size_t> table_of_;       ///< bit -> its byte's table
  std::vector<double> ref_;         ///< the first trace (valid while n_ > 0)
  std::vector<double> sum_s_;       ///< per sample, shared
  std::vector<double> shift_;       ///< one shifted row (scratch)
  // Read cache (see the file comment).
  mutable bool cache_live_ = false;
  mutable std::vector<std::uint64_t> n1_;  ///< bits × guesses
  mutable std::vector<double> sum1_;       ///< bits × guesses × m
  mutable std::vector<const double*> fold_rows_;
  mutable std::vector<std::uint8_t> fold_reps_;
};

}  // namespace qdi::dpa
