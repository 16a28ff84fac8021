#include "qdi/dpa/online.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace qdi::dpa {

namespace {

/// Traces per rank-B kernel invocation. Small enough that a block of
/// sample rows stays cache-resident while every guess sweeps it.
constexpr std::size_t kBlock = 16;

/// A predictor reads plaintext[byte] of every row; past the set's
/// plaintext stride that would be the next trace's bytes.
void check_byte(const char* who, int byte, std::size_t stride) {
  if (byte < 0 || static_cast<std::size_t>(byte) >= stride)
    throw std::invalid_argument(
        std::string(who) + ": predictor reads plaintext byte " +
        std::to_string(byte) + " but the trace set's plaintext stride is " +
        std::to_string(stride) + " bytes");
}

void window_stats(BiasResult& r, SampleWindow window) {
  r.peak = 0.0;
  r.peak_index = window.lo;
  r.integrated = 0.0;
  for (std::size_t j = 0; j < r.bias.size(); ++j) {
    if (!window.contains(j)) continue;
    const double a = std::fabs(r.bias[j]);
    r.integrated += a;
    if (a > r.peak) {
      r.peak = a;
      r.peak_index = j;
    }
  }
}

void rank_finalize(KeyRecoveryResult& r, unsigned num_guesses) {
  r.best_guess = static_cast<unsigned>(
      std::max_element(r.guess_peak.begin(), r.guess_peak.end()) -
      r.guess_peak.begin());
  r.best_peak = r.guess_peak[r.best_guess];
  r.second_peak = 0.0;
  for (unsigned g = 0; g < num_guesses; ++g)
    if (g != r.best_guess)
      r.second_peak = std::max(r.second_peak, r.guess_peak[g]);
}

}  // namespace

// ---- OnlineCpa -------------------------------------------------------------

OnlineCpa::OnlineCpa(LeakageModel model, unsigned num_guesses)
    : model_(std::move(model)), guesses_(num_guesses) {
  assert(model_);
  assert(guesses_ > 0);
  sum_h_.assign(guesses_, 0.0);
  sum_h2_.assign(guesses_, 0.0);
  lut_.resize(256 * static_cast<std::size_t>(guesses_));
  for (unsigned v = 0; v < 256; ++v)
    for (unsigned g = 0; g < guesses_; ++g)
      lut_[v * guesses_ + g] = model_.eval_byte(static_cast<std::uint8_t>(v), g);
}

void OnlineCpa::ensure_geometry(std::size_t m) {
  if (!sum_s_.empty() || n_ > 0) {
    if (m != m_)
      throw std::invalid_argument(
          "OnlineCpa: sample count differs from the first trace");
    return;
  }
  m_ = m;
  sum_s_.assign(m_, 0.0);
  sum_s2_.assign(m_, 0.0);
  sum_hs_.assign(static_cast<std::size_t>(guesses_) * m_, 0.0);
}

void OnlineCpa::ingest(const double* const* rows, const double* const* hyp,
                       std::size_t cnt) {
  // Shared per-sample moments (trace order — identical whatever the
  // caller's blocking), then the per-guess moments, then the rank-cnt
  // update of the guesses × m products matrix. The sample-axis loops
  // run through the dispatched kernel table; per (g, j) cell the adds
  // happen in trace order in every arm, so neither blocking nor the
  // dispatch choice changes the floating-point result.
  kernels_->cpa_moments(sum_s_.data(), sum_s2_.data(), rows, cnt, m_);
  for (std::size_t c = 0; c < cnt; ++c) {
    const double* h = hyp[c];
    for (unsigned g = 0; g < guesses_; ++g) {
      sum_h_[g] += h[g];
      sum_h2_[g] += h[g] * h[g];
    }
  }
  kernels_->cpa_rank_update(sum_hs_.data(), rows, hyp, cnt, guesses_, m_);
  n_ += cnt;
  var_valid_ = false;
}

void OnlineCpa::add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi) {
  hi = std::min(hi, ts.size());
  if (lo >= hi) return;
  check_byte("OnlineCpa", model_.byte(), ts.plaintext(lo).size());
  ensure_geometry(ts.num_samples());
  // Each trace's hypothesis row is the LUT row of its plaintext byte;
  // rank-kBlock updates sweep blocks of them.
  const auto byte = static_cast<std::size_t>(model_.byte());
  for (std::size_t t0 = lo; t0 < hi; t0 += kBlock) {
    const std::size_t cnt = std::min(kBlock, hi - t0);
    const double* rows[kBlock];
    const double* hyp[kBlock];
    for (std::size_t c = 0; c < cnt; ++c) {
      rows[c] = ts.matrix().row(t0 + c).data();
      hyp[c] = lut_.data() +
               static_cast<std::size_t>(ts.plaintext(t0 + c)[byte]) * guesses_;
    }
    ingest(rows, hyp, cnt);
  }
}

const std::vector<double>& OnlineCpa::var_s_cache() const {
  // Shared by finalize() and correlation_trace(): repeated prefix
  // probes of an MTD scan hit the cache until the next ingest (or
  // merge/restore) invalidates it. The expression keeps its historical
  // operation order (mul, then divide, then subtract) so cached
  // variances stay bit-stable.
  if (!var_valid_) {
    var_cache_.resize(m_);
    const double nn = static_cast<double>(n_);
    for (std::size_t j = 0; j < m_; ++j)
      var_cache_[j] = sum_s2_[j] - sum_s_[j] * sum_s_[j] / nn;
    var_valid_ = true;
  }
  return var_cache_;
}

CpaResult OnlineCpa::finalize(std::size_t window_lo,
                              std::size_t window_hi) const {
  CpaResult res;
  res.correlation.assign(guesses_, 0.0);
  if (n_ == 0 || m_ == 0) return res;
  const std::size_t hi = (window_hi == 0) ? m_ : std::min(window_hi, m_);
  const std::size_t span = hi > window_lo ? hi - window_lo : 0;
  const double nn = static_cast<double>(n_);
  const std::vector<double>& var_s = var_s_cache();
  rho_scratch_.resize(m_);

  for (unsigned g = 0; g < guesses_; ++g) {
    const double var_h = sum_h2_[g] - sum_h_[g] * sum_h_[g] / nn;
    double best = 0.0;
    std::size_t best_j = window_lo;
    if (var_h > 0.0 && span > 0) {
      const double* hs = sum_hs_.data() + static_cast<std::size_t>(g) * m_;
      double* rho = rho_scratch_.data();
      // Zero-variance samples scan as rho == 0.0, which can never win
      // the strict max below — the same candidates as the historical
      // "skip non-positive variance" loop, peak values bit-identical.
      kernels_->corr_scan(rho, hs + window_lo, sum_s_.data() + window_lo,
                          var_s.data() + window_lo, sum_h_[g], var_h, nn,
                          span);
      for (std::size_t j = 0; j < span; ++j) {
        const double a = std::fabs(rho[j]);
        if (a > best) {
          best = a;
          best_j = window_lo + j;
        }
      }
    }
    res.correlation[g] = best;
    if (best > res.best_rho) {
      res.best_rho = best;
      res.best_guess = g;
      res.best_sample = best_j;
    }
  }
  res.second_rho = 0.0;
  for (unsigned g = 0; g < guesses_; ++g)
    if (g != res.best_guess)
      res.second_rho = std::max(res.second_rho, res.correlation[g]);
  return res;
}

std::vector<double> OnlineCpa::correlation_trace(unsigned guess) const {
  assert(guess < guesses_);
  std::vector<double> rho(m_, 0.0);
  if (n_ == 0) return rho;
  const double nn = static_cast<double>(n_);
  const double var_h = sum_h2_[guess] - sum_h_[guess] * sum_h_[guess] / nn;
  if (var_h <= 0.0) return rho;
  const std::vector<double>& var_s = var_s_cache();
  const double* hs = sum_hs_.data() + static_cast<std::size_t>(guess) * m_;
  kernels_->corr_scan(rho.data(), hs, sum_s_.data(), var_s.data(),
                      sum_h_[guess], var_h, nn, m_);
  return rho;
}

void OnlineCpa::reset() noexcept {
  n_ = 0;
  std::fill(sum_s_.begin(), sum_s_.end(), 0.0);
  std::fill(sum_s2_.begin(), sum_s2_.end(), 0.0);
  std::fill(sum_h_.begin(), sum_h_.end(), 0.0);
  std::fill(sum_h2_.begin(), sum_h2_.end(), 0.0);
  std::fill(sum_hs_.begin(), sum_hs_.end(), 0.0);
  var_valid_ = false;
}

// ---- OnlineDpa -------------------------------------------------------------

OnlineDpa::OnlineDpa(std::vector<SelectionFn> bits, unsigned num_guesses)
    : bits_(std::move(bits)), guesses_(num_guesses) {
  assert(!bits_.empty());
  assert(guesses_ > 0);
  n1_.assign(bits_.size() * static_cast<std::size_t>(guesses_), 0);
  // Decisions are stored as {0.0, 1.0} doubles: the ingest kernel turns
  // them into a mask row and accumulates every set-1 trace branch-free
  // (dst[j] += mask * s[j]).
  lut_.resize(bits_.size() * 256 * static_cast<std::size_t>(guesses_));
  for (std::size_t b = 0; b < bits_.size(); ++b)
    for (unsigned v = 0; v < 256; ++v)
      for (unsigned g = 0; g < guesses_; ++g)
        lut_[(b * 256 + v) * guesses_ + g] =
            bits_[b].eval_byte(static_cast<std::uint8_t>(v), g) != 0 ? 1.0
                                                                     : 0.0;
}

void OnlineDpa::ensure_geometry(std::size_t m) {
  if (!sum_s_.empty() || n_ > 0) {
    if (m != m_)
      throw std::invalid_argument(
          "OnlineDpa: sample count differs from the first trace");
    return;
  }
  m_ = m;
  sum_s_.assign(m_, 0.0);
  sum1_.assign(bits_.size() * static_cast<std::size_t>(guesses_) * m_, 0.0);
}

void OnlineDpa::ingest(const double* const* rows,
                       const std::uint8_t* const* pts, std::size_t cnt) {
  const std::size_t nbits = bits_.size();
  for (std::size_t c = 0; c < cnt; ++c)
    kernels_->row_add(sum_s_.data(), rows[c], m_);
  // Branch-free partitioned sums: per (bit, guess) the {0.0, 1.0} LUT
  // decisions become a mask over the trace block and the kernel runs
  // dst[j] += mask[c] * s[j] with no data-dependent branch in the
  // sample loop. A masked-out trace adds a signed zero, which cannot
  // change any accumulator bit (see kernels.hpp), so this is
  // bit-identical to the historical "if (d) skip" loop.
  double mask[kBlock];
  for (std::size_t b = 0; b < nbits; ++b) {
    const auto byte = static_cast<std::size_t>(bits_[b].byte());
    for (unsigned g = 0; g < guesses_; ++g) {
      double* dst = sum1_.data() +
                    (b * static_cast<std::size_t>(guesses_) + g) * m_;
      std::uint32_t ones = 0;
      for (std::size_t c = 0; c < cnt; ++c) {
        const double d = lut_[(b * 256 + pts[c][byte]) * guesses_ + g];
        mask[c] = d;
        ones += static_cast<std::uint32_t>(d);
      }
      n1_[b * guesses_ + g] += ones;
      kernels_->masked_sum(dst, rows, mask, cnt, m_);
    }
  }
  n_ += cnt;
}

void OnlineDpa::add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi) {
  hi = std::min(hi, ts.size());
  if (lo >= hi) return;
  for (const SelectionFn& d : bits_)
    check_byte("OnlineDpa", d.byte(), ts.plaintext(lo).size());
  ensure_geometry(ts.num_samples());
  for (std::size_t t0 = lo; t0 < hi; t0 += kBlock) {
    const std::size_t cnt = std::min(kBlock, hi - t0);
    const double* rows[kBlock];
    const std::uint8_t* pts[kBlock];
    for (std::size_t c = 0; c < cnt; ++c) {
      rows[c] = ts.matrix().row(t0 + c).data();
      pts[c] = ts.plaintext(t0 + c).data();
    }
    ingest(rows, pts, cnt);
  }
}

BiasResult OnlineDpa::bias(unsigned guess, std::size_t bit,
                           SampleWindow window) const {
  assert(guess < guesses_ && bit < bits_.size());
  BiasResult r;
  const std::size_t idx = bit * static_cast<std::size_t>(guesses_) + guess;
  r.n1 = n1_[idx];
  r.n0 = n_ - r.n1;
  if (r.n0 == 0 || r.n1 == 0) {
    r.bias.assign(m_, 0.0);
    return r;
  }
  const double* s1 = sum1_.data() + idx * m_;
  const double inv0 = 1.0 / static_cast<double>(r.n0);
  const double inv1 = 1.0 / static_cast<double>(r.n1);
  r.bias.resize(m_);
  for (std::size_t j = 0; j < m_; ++j)
    r.bias[j] = (sum_s_[j] - s1[j]) * inv0 - s1[j] * inv1;
  window_stats(r, window);
  return r;
}

double OnlineDpa::peak_of(unsigned guess, std::size_t bit,
                          SampleWindow window) const {
  const std::size_t idx = bit * static_cast<std::size_t>(guesses_) + guess;
  const std::size_t c1 = n1_[idx];
  const std::size_t c0 = n_ - c1;
  if (c0 == 0 || c1 == 0) return 0.0;
  const double* s1 = sum1_.data() + idx * m_;
  const double inv0 = 1.0 / static_cast<double>(c0);
  const double inv1 = 1.0 / static_cast<double>(c1);
  double peak = 0.0;
  for (std::size_t j = 0; j < m_; ++j) {
    if (!window.contains(j)) continue;
    const double a = std::fabs((sum_s_[j] - s1[j]) * inv0 - s1[j] * inv1);
    if (a > peak) peak = a;
  }
  return peak;
}

KeyRecoveryResult OnlineDpa::recover(SampleWindow window) const {
  KeyRecoveryResult r;
  r.guess_peak.assign(guesses_, 0.0);
  for (unsigned g = 0; g < guesses_; ++g) {
    double sum = 0.0;
    for (std::size_t b = 0; b < bits_.size(); ++b)
      sum += peak_of(g, b, window);
    r.guess_peak[g] = sum;
  }
  rank_finalize(r, guesses_);
  return r;
}

// ---- merge + state serialization -------------------------------------------

namespace {

// Tiny little-endian byte codec for the accumulator snapshots. The
// format is an implementation detail shared by serialize_state and
// restore_state only — not a stable interchange format.
constexpr std::uint32_t kCpaMagic = 0x71647043;  // "qdpC"
constexpr std::uint32_t kDpaMagic = 0x71647044;  // "qdpD"

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_doubles(std::vector<std::uint8_t>& out,
                 const std::vector<double>& v) {
  put_u64(out, v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(double));
}

void put_u32s(std::vector<std::uint8_t>& out,
              const std::vector<std::uint32_t>& v) {
  put_u64(out, v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(std::uint32_t));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t u64() {
    if (bytes_.size() - pos_ < 8) truncated();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  // The element counts are length-prefixed and attacker-controlled, so
  // the bound checks divide instead of multiplying — `n * sizeof(T)`
  // on a hostile n would wrap around std::uint64_t and pass a `pos + n
  // * size > total` comparison that the buffer cannot actually satisfy.
  void doubles(std::vector<double>& out) {
    const std::uint64_t n = u64();
    if (n > (bytes_.size() - pos_) / sizeof(double)) truncated();
    out.resize(n);
    std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
  }

  void u32s(std::vector<std::uint32_t>& out) {
    const std::uint64_t n = u64();
    if (n > (bytes_.size() - pos_) / sizeof(std::uint32_t)) truncated();
    out.resize(n);
    std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(std::uint32_t));
    pos_ += n * sizeof(std::uint32_t);
  }

  void expect_end() const {
    if (pos_ != bytes_.size())
      throw StateError(StateError::Kind::Oversized,
                       "Online accumulator: state snapshot has trailing "
                       "bytes past the last field");
  }

 private:
  [[noreturn]] static void truncated() {
    throw StateError(StateError::Kind::Truncated,
                     "Online accumulator: state snapshot ends before the "
                     "declared fields");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void add_into(std::vector<double>& dst, const std::vector<double>& src) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

}  // namespace

void OnlineCpa::merge(const OnlineCpa& other) {
  if (other.guesses_ != guesses_)
    throw std::invalid_argument("OnlineCpa::merge: num_guesses differ");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    ensure_geometry(other.m_);
  } else if (other.m_ != m_) {
    throw std::invalid_argument(
        "OnlineCpa::merge: sample geometry differs");
  }
  add_into(sum_s_, other.sum_s_);
  add_into(sum_s2_, other.sum_s2_);
  add_into(sum_h_, other.sum_h_);
  add_into(sum_h2_, other.sum_h2_);
  add_into(sum_hs_, other.sum_hs_);
  n_ += other.n_;
  var_valid_ = false;
}

std::vector<std::uint8_t> OnlineCpa::serialize_state() const {
  std::vector<std::uint8_t> out;
  put_u64(out, kCpaMagic);
  put_u64(out, guesses_);
  put_u64(out, m_);
  put_u64(out, n_);
  put_doubles(out, sum_s_);
  put_doubles(out, sum_s2_);
  put_doubles(out, sum_h_);
  put_doubles(out, sum_h2_);
  put_doubles(out, sum_hs_);
  return out;
}

void OnlineCpa::restore_state(std::span<const std::uint8_t> bytes) {
  // Parse into temporaries and commit only after every check passed:
  // a rejected snapshot (StateError of any kind) must leave this
  // accumulator exactly as it was, or a shard that falls back to an
  // older checkpoint after a corrupt one would start from garbage.
  Reader r(bytes);
  if (r.u64() != kCpaMagic)
    throw StateError(StateError::Kind::BadMagic,
                     "OnlineCpa::restore_state: not an OnlineCpa snapshot");
  if (r.u64() != guesses_)
    throw StateError(StateError::Kind::Geometry,
                     "OnlineCpa::restore_state: snapshot was taken with a "
                     "different num_guesses");
  const std::uint64_t m = r.u64();
  const std::uint64_t n = r.u64();
  std::vector<double> s, s2, h, h2, hs;
  r.doubles(s);
  r.doubles(s2);
  r.doubles(h);
  r.doubles(h2);
  r.doubles(hs);
  r.expect_end();
  if (s.size() != m || s2.size() != m || h.size() != guesses_ ||
      h2.size() != guesses_ ||
      hs.size() != static_cast<std::size_t>(guesses_) * m)
    throw StateError(StateError::Kind::Geometry,
                     "OnlineCpa::restore_state: inconsistent snapshot "
                     "geometry");
  sum_s_ = std::move(s);
  sum_s2_ = std::move(s2);
  sum_h_ = std::move(h);
  sum_h2_ = std::move(h2);
  sum_hs_ = std::move(hs);
  m_ = m;
  n_ = n;
  var_valid_ = false;
}

void OnlineDpa::merge(const OnlineDpa& other) {
  if (other.guesses_ != guesses_ || other.bits_.size() != bits_.size())
    throw std::invalid_argument(
        "OnlineDpa::merge: guess or selection-bit counts differ");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    ensure_geometry(other.m_);
  } else if (other.m_ != m_) {
    throw std::invalid_argument(
        "OnlineDpa::merge: sample geometry differs");
  }
  add_into(sum_s_, other.sum_s_);
  for (std::size_t i = 0; i < n1_.size(); ++i) n1_[i] += other.n1_[i];
  add_into(sum1_, other.sum1_);
  n_ += other.n_;
}

std::vector<std::uint8_t> OnlineDpa::serialize_state() const {
  std::vector<std::uint8_t> out;
  put_u64(out, kDpaMagic);
  put_u64(out, guesses_);
  put_u64(out, bits_.size());
  put_u64(out, m_);
  put_u64(out, n_);
  put_doubles(out, sum_s_);
  put_u32s(out, n1_);
  put_doubles(out, sum1_);
  return out;
}

void OnlineDpa::restore_state(std::span<const std::uint8_t> bytes) {
  // Same parse-then-commit discipline as OnlineCpa::restore_state.
  Reader r(bytes);
  if (r.u64() != kDpaMagic)
    throw StateError(StateError::Kind::BadMagic,
                     "OnlineDpa::restore_state: not an OnlineDpa snapshot");
  if (r.u64() != guesses_ || r.u64() != bits_.size())
    throw StateError(StateError::Kind::Geometry,
                     "OnlineDpa::restore_state: snapshot was taken with a "
                     "different guess/selection-bit configuration");
  const std::uint64_t m = r.u64();
  const std::uint64_t n = r.u64();
  std::vector<double> s, s1;
  std::vector<std::uint32_t> counts;
  r.doubles(s);
  r.u32s(counts);
  r.doubles(s1);
  r.expect_end();
  if (s.size() != m || counts.size() != bits_.size() * guesses_ ||
      s1.size() != bits_.size() * static_cast<std::size_t>(guesses_) * m)
    throw StateError(StateError::Kind::Geometry,
                     "OnlineDpa::restore_state: inconsistent snapshot "
                     "geometry");
  // A set-1 count above n would wrap the set-0 count n - n1 in bias().
  if (std::any_of(counts.begin(), counts.end(),
                  [n](std::uint32_t c) { return c > n; }))
    throw StateError(StateError::Kind::Geometry,
                     "OnlineDpa::restore_state: a set-1 count exceeds the "
                     "trace count");
  sum_s_ = std::move(s);
  n1_ = std::move(counts);
  sum1_ = std::move(s1);
  m_ = m;
  n_ = n;
}

KeyRecoveryResult OnlineDpa::recover_single(std::size_t bit,
                                            SampleWindow window) const {
  assert(bit < bits_.size());
  KeyRecoveryResult r;
  r.guess_peak.assign(guesses_, 0.0);
  for (unsigned g = 0; g < guesses_; ++g)
    r.guess_peak[g] = peak_of(g, bit, window);
  rank_finalize(r, guesses_);
  return r;
}

void OnlineDpa::reset() noexcept {
  n_ = 0;
  std::fill(sum_s_.begin(), sum_s_.end(), 0.0);
  std::fill(n1_.begin(), n1_.end(), 0u);
  std::fill(sum1_.begin(), sum1_.end(), 0.0);
}

}  // namespace qdi::dpa
