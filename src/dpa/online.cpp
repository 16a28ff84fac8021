#include "qdi/dpa/online.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace qdi::dpa {

namespace {

/// Class rows per kernel invocation of a read. Small enough that a block
/// of sample rows stays cache-resident while every guess sweeps it.
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

/// [lo, hi) := the hull of itself and [olo, ohi); an empty range
/// (lo == hi) contributes nothing.
void hull(std::size_t& lo, std::size_t& hi, std::size_t olo, std::size_t ohi) {
  if (olo == ohi) return;
  if (lo == hi) {
    lo = olo;
    hi = ohi;
    return;
  }
  lo = std::min(lo, olo);
  hi = std::max(hi, ohi);
}

/// The samples of window [wlo, whi) (whi == 0: to m) inside the span
/// [lo, hi), as [first, second); empty when first >= second. Outside
/// the span every correlation and bias is exactly 0.0.
std::pair<std::size_t, std::size_t> live_window(std::size_t wlo,
                                                std::size_t whi,
                                                std::size_t m, std::size_t lo,
                                                std::size_t hi) {
  return {std::max(wlo, lo), std::min(whi == 0 ? m : std::min(whi, m), hi)};
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

// ---- ClassTable ------------------------------------------------------------

namespace detail {

ClassTable::ClassTable(int byte, const std::vector<const double*>& blocks,
                       std::size_t width)
    : byte_(byte) {
  const auto same = [&](unsigned a, unsigned b) {
    for (const double* block : blocks)
      if (std::memcmp(block + a * width, block + b * width,
                      width * sizeof(double)) != 0)
        return false;
    return true;
  };
  for (unsigned v = 0; v < 256; ++v) {
    std::size_t c = 0;
    while (c < rep_.size() && !same(rep_[c], v)) ++c;
    if (c == rep_.size()) rep_.push_back(static_cast<std::uint8_t>(v));
    cls_[v] = static_cast<std::uint8_t>(c);
  }
  count_.assign(rep_.size(), 0);
  sum_.resize(rep_.size());
  slot_.assign(rep_.size(), -1);
}

void ClassTable::add(const double* row, std::uint8_t v, std::size_t m,
                     std::size_t lo, std::size_t hi,
                     const kernels::KernelTable& k, bool pending) {
  const std::size_t c = cls_[v];
  ++count_[c];
  if (sum_[c].size() != m) sum_[c].assign(m, 0.0);
  k.row_add(sum_[c].data() + lo, row + lo, hi - lo);
  if (!pending) return;
  if (slot_[c] < 0) {
    // A fresh slot is all +0.0: grown by value-initialization, or
    // zeroed over its span by the clear_pending() that released it.
    slot_[c] = static_cast<std::int32_t>(used_++);
    if (pending_.size() < used_ * m) pending_.resize(used_ * m);
  }
  k.row_add(pending_.data() + static_cast<std::size_t>(slot_[c]) * m + lo,
            row + lo, hi - lo);
}

void ClassTable::fold_rows(bool full, std::size_t m, std::size_t lo,
                           std::vector<const double*>& rows,
                           std::vector<std::uint8_t>& reps) const {
  rows.clear();
  reps.clear();
  for (std::size_t c = 0; c < rep_.size(); ++c) {
    if (full) {
      if (count_[c] == 0) continue;
      rows.push_back(sum_[c].data() + lo);
    } else {
      if (slot_[c] < 0) continue;
      rows.push_back(pending_.data() + static_cast<std::size_t>(slot_[c]) * m +
                     lo);
    }
    reps.push_back(rep_[c]);
  }
}

void ClassTable::clear_pending(std::size_t m, std::size_t lo,
                               std::size_t hi) const {
  if (used_ == 0) return;
  for (std::int32_t& s : slot_) {
    if (s < 0) continue;
    std::fill(pending_.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(s) * m + lo),
              pending_.begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(s) * m + hi),
              0.0);
    s = -1;
  }
  used_ = 0;
}

void ClassTable::merge(const ClassTable& o, std::size_t m, std::size_t lo,
                       std::size_t hi, const double* delta) {
  for (std::size_t c = 0; c < count_.size(); ++c) {
    if (o.count_[c] == 0) continue;
    count_[c] += o.count_[c];
    if (sum_[c].size() != m) sum_[c].assign(m, 0.0);
    const double k = static_cast<double>(o.count_[c]);
    double* dst = sum_[c].data();
    const double* src = o.sum_[c].data();
    for (std::size_t j = lo; j < hi; ++j) dst[j] += src[j] + k * delta[j];
  }
}

void ClassTable::assign(std::vector<std::uint64_t> counts,
                        const std::vector<double>& sums, std::size_t m,
                        std::size_t lo, std::size_t hi) {
  count_ = std::move(counts);
  const std::size_t w = hi - lo;
  for (std::size_t c = 0; c < count_.size(); ++c) {
    if (count_[c] == 0) {
      sum_[c].clear();
    } else {
      sum_[c].assign(m, 0.0);
      std::copy_n(sums.begin() + static_cast<std::ptrdiff_t>(c * w), w,
                  sum_[c].begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }
}

void ClassTable::reset() noexcept {
  std::fill(count_.begin(), count_.end(), 0);
  for (std::vector<double>& r : sum_) std::fill(r.begin(), r.end(), 0.0);
}

}  // namespace detail

// ---- OnlineCpa -------------------------------------------------------------

namespace {

std::vector<double> tabulate(const LeakageModel& model, unsigned guesses) {
  assert(model);
  assert(guesses > 0);
  std::vector<double> lut(256 * static_cast<std::size_t>(guesses));
  for (unsigned v = 0; v < 256; ++v)
    for (unsigned g = 0; g < guesses; ++g)
      lut[v * guesses + g] = model.eval_byte(static_cast<std::uint8_t>(v), g);
  return lut;
}

}  // namespace

OnlineCpa::OnlineCpa(LeakageModel model, unsigned num_guesses)
    : model_(std::move(model)),
      guesses_(num_guesses),
      lut_(tabulate(model_, guesses_)),
      table_(model_.byte(), {lut_.data()}, guesses_) {
  // Correlation is invariant under a per-guess shift of the hypothesis,
  // so once the class map is keyed on the raw values, each guess's LUT
  // column is centred on its mean over the 256 byte values. Against
  // shifted samples this keeps sum_hs[g][j] near sqrt(n) in scale
  // instead of carrying sum_h times the reference's offset, which the
  // covariance would then cancel (and a read's fold order would round).
  for (unsigned g = 0; g < guesses_; ++g) {
    double mean = 0.0;
    for (unsigned v = 0; v < 256; ++v) mean += lut_[v * guesses_ + g];
    mean /= 256.0;
    for (unsigned v = 0; v < 256; ++v) lut_[v * guesses_ + g] -= mean;
  }
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
  shift_.assign(m_, 0.0);
}

void OnlineCpa::add_prefix(const TraceSet& ts, std::size_t begin,
                           std::size_t end) {
  end = std::min(end, ts.size());
  if (begin >= end) return;
  check_byte("OnlineCpa", model_.byte(), ts.plaintext(begin).size());
  ensure_geometry(ts.num_samples());
  if (n_ == 0) {
    const double* first = ts.matrix().row(begin).data();
    ref_.assign(first, first + m_);
  }
  // Per trace: shift by the reference row (widening the span), then the
  // shared per-sample moments and one class-row add over the span, all
  // in trace order, so blocking never changes a state bit.
  const auto byte = static_cast<std::size_t>(model_.byte());
  for (std::size_t i = begin; i < end; ++i) {
    kernels_->shift_span(shift_.data(), ts.matrix().row(i).data(),
                         ref_.data(), m_, &lo_, &hi_);
    const double* row = shift_.data() + lo_;
    kernels_->cpa_moments(sum_s_.data() + lo_, sum_s2_.data() + lo_, &row, 1,
                          hi_ - lo_);
    table_.add(shift_.data(), ts.plaintext(i)[byte], m_, lo_, hi_, *kernels_,
               cache_live_);
  }
  n_ += end - begin;
  var_valid_ = false;
}

void OnlineCpa::sync() const {
  // Build from every class total, or fold the rows touched since the
  // last read, in class order: sum_hs[g] += h(c, g) * rows[c] over the
  // span, through the rank-update kernel with class rows in place of
  // trace rows. Cache columns outside the span stay +0.0, which is
  // what they hold once the span widens over them.
  const bool full = !cache_live_;
  table_.fold_rows(full, m_, lo_, fold_rows_, fold_reps_);
  if (full) {
    sum_hs_.assign(static_cast<std::size_t>(guesses_) * m_, 0.0);
    cache_live_ = true;
  } else if (fold_rows_.empty()) {
    return;
  }
  const double* hyp[kBlock];
  for (std::size_t i0 = 0; i0 < fold_rows_.size(); i0 += kBlock) {
    const std::size_t cnt = std::min(kBlock, fold_rows_.size() - i0);
    for (std::size_t c = 0; c < cnt; ++c)
      hyp[c] = lut_.data() + fold_reps_[i0 + c] * std::size_t{guesses_};
    kernels_->cpa_rank_update(sum_hs_.data() + lo_, fold_rows_.data() + i0,
                              hyp, cnt, guesses_, hi_ - lo_, m_);
  }
  table_.clear_pending(m_, lo_, hi_);
  // The count terms are exact functions of the class counts.
  sum_h_.assign(guesses_, 0.0);
  sum_h2_.assign(guesses_, 0.0);
  const std::vector<std::uint64_t>& counts = table_.counts();
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] == 0) continue;
    const double k = static_cast<double>(counts[c]);
    const double* h = lut_.data() +
                      static_cast<std::size_t>(table_.rep(c)) * guesses_;
    for (unsigned g = 0; g < guesses_; ++g) {
      sum_h_[g] += k * h[g];
      sum_h2_[g] += k * (h[g] * h[g]);
    }
  }
}

const std::vector<double>& OnlineCpa::var_s_cache() const {
  // Shared by finalize() and correlation_trace(): repeated prefix
  // probes of an MTD scan hit the cache until the next ingest (or
  // merge/restore) invalidates it. The expression keeps its historical
  // operation order (mul, then divide, then subtract) so cached
  // variances stay bit-stable.
  // Only the span is computed or read.
  if (!var_valid_) {
    var_cache_.resize(m_);
    const double nn = static_cast<double>(n_);
    for (std::size_t j = lo_; j < hi_; ++j)
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
  sync();
  // Samples outside the span read exactly 0.0 and can never win the
  // strict max below.
  const auto [a, b] = live_window(window_lo, window_hi, m_, lo_, hi_);
  const std::size_t span = b > a ? b - a : 0;
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
      kernels_->corr_scan(rho, hs + a, sum_s_.data() + a, var_s.data() + a,
                          sum_h_[g], var_h, nn, span);
      for (std::size_t j = 0; j < span; ++j) {
        const double r = std::fabs(rho[j]);
        if (r > best) {
          best = r;
          best_j = a + j;
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
  sync();
  const double nn = static_cast<double>(n_);
  const double var_h = sum_h2_[guess] - sum_h_[guess] * sum_h_[guess] / nn;
  if (var_h <= 0.0) return rho;
  const std::vector<double>& var_s = var_s_cache();
  const double* hs = sum_hs_.data() + static_cast<std::size_t>(guess) * m_;
  kernels_->corr_scan(rho.data() + lo_, hs + lo_, sum_s_.data() + lo_,
                      var_s.data() + lo_, sum_h_[guess], var_h, nn,
                      hi_ - lo_);
  return rho;
}

void OnlineCpa::reset() noexcept {
  n_ = 0;
  lo_ = hi_ = 0;
  std::fill(sum_s_.begin(), sum_s_.end(), 0.0);
  std::fill(sum_s2_.begin(), sum_s2_.end(), 0.0);
  table_.clear_pending(m_, 0, m_);
  table_.reset();
  cache_live_ = false;
  var_valid_ = false;
}

// ---- OnlineDpa -------------------------------------------------------------

OnlineDpa::OnlineDpa(std::vector<SelectionFn> bits, unsigned num_guesses)
    : bits_(std::move(bits)), guesses_(num_guesses) {
  assert(!bits_.empty());
  assert(guesses_ > 0);
  const std::size_t nbits = bits_.size();
  const std::size_t G = guesses_;
  // Decisions are stored as {0.0, 1.0} doubles: a read turns a D column
  // into the mask of the masked-sum kernel (dst[j] += mask * s[j]).
  lut_.resize(nbits * 256 * G);
  for (std::size_t b = 0; b < nbits; ++b)
    for (unsigned v = 0; v < 256; ++v)
      for (unsigned g = 0; g < guesses_; ++g)
        lut_[(b * 256 + v) * G + g] =
            bits_[b].eval_byte(static_cast<std::uint8_t>(v), g) != 0 ? 1.0
                                                                     : 0.0;
  // One class table per distinct plaintext byte, in first-use order;
  // its class key is the decision row of every bit reading that byte.
  std::vector<int> bytes;
  table_of_.resize(nbits);
  for (std::size_t b = 0; b < nbits; ++b) {
    const auto it = std::find(bytes.begin(), bytes.end(), bits_[b].byte());
    table_of_[b] = static_cast<std::size_t>(it - bytes.begin());
    if (it == bytes.end()) bytes.push_back(bits_[b].byte());
  }
  for (std::size_t t = 0; t < bytes.size(); ++t) {
    std::vector<const double*> blocks;
    for (std::size_t b = 0; b < nbits; ++b)
      if (table_of_[b] == t) blocks.push_back(lut_.data() + b * 256 * G);
    tables_.emplace_back(bytes[t], blocks, G);
  }
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
  shift_.assign(m_, 0.0);
}

void OnlineDpa::add_prefix(const TraceSet& ts, std::size_t begin,
                           std::size_t end) {
  end = std::min(end, ts.size());
  if (begin >= end) return;
  for (const SelectionFn& d : bits_)
    check_byte("OnlineDpa", d.byte(), ts.plaintext(begin).size());
  ensure_geometry(ts.num_samples());
  if (n_ == 0) {
    const double* first = ts.matrix().row(begin).data();
    ref_.assign(first, first + m_);
  }
  for (std::size_t i = begin; i < end; ++i) {
    kernels_->shift_span(shift_.data(), ts.matrix().row(i).data(),
                         ref_.data(), m_, &lo_, &hi_);
    const std::uint8_t* pt = ts.plaintext(i).data();
    kernels_->row_add(sum_s_.data() + lo_, shift_.data() + lo_, hi_ - lo_);
    for (detail::ClassTable& t : tables_)
      t.add(shift_.data(), pt[t.byte()], m_, lo_, hi_, *kernels_,
            cache_live_);
  }
  n_ += end - begin;
}

void OnlineDpa::sync() const {
  // Build or fold (see OnlineCpa::sync): per (bit, guess), the masked-
  // sum kernel adds the class rows whose D decision is 1 over the span,
  // with the D column over the block's classes as its {0.0, 1.0} mask.
  // Blocks of kBlock class rows stay cache-resident while every
  // (bit, guess) sweeps them; each cell still sees the classes in class
  // order.
  const bool full = !cache_live_;
  const std::size_t G = guesses_;
  if (full) {
    sum1_.assign(bits_.size() * G * m_, 0.0);
    cache_live_ = true;
  }
  bool folded = full;
  double mask[kBlock];
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const detail::ClassTable& table = tables_[t];
    table.fold_rows(full, m_, lo_, fold_rows_, fold_reps_);
    if (fold_rows_.empty()) continue;
    folded = true;
    for (std::size_t i0 = 0; i0 < fold_rows_.size(); i0 += kBlock) {
      const std::size_t cnt = std::min(kBlock, fold_rows_.size() - i0);
      for (std::size_t b = 0; b < bits_.size(); ++b) {
        if (table_of_[b] != t) continue;
        for (unsigned g = 0; g < guesses_; ++g) {
          for (std::size_t c = 0; c < cnt; ++c)
            mask[c] = lut_[(b * 256 + fold_reps_[i0 + c]) * G + g];
          kernels_->masked_sum(sum1_.data() + (b * G + g) * m_ + lo_,
                               fold_rows_.data() + i0, mask, cnt, hi_ - lo_);
        }
      }
    }
    table.clear_pending(m_, lo_, hi_);
  }
  if (!folded) return;
  // Set-1 sizes are exact functions of the class counts.
  n1_.assign(bits_.size() * G, 0);
  for (std::size_t b = 0; b < bits_.size(); ++b) {
    const detail::ClassTable& table = tables_[table_of_[b]];
    const std::vector<std::uint64_t>& counts = table.counts();
    for (std::size_t c = 0; c < counts.size(); ++c) {
      const double* d = lut_.data() + (b * 256 + table.rep(c)) * G;
      for (unsigned g = 0; g < guesses_; ++g)
        if (d[g] != 0.0) n1_[b * G + g] += counts[c];
    }
  }
}

BiasResult OnlineDpa::bias(unsigned guess, std::size_t bit,
                           SampleWindow window) const {
  assert(guess < guesses_ && bit < bits_.size());
  sync();
  BiasResult r;
  const std::size_t idx = bit * static_cast<std::size_t>(guesses_) + guess;
  r.n1 = n1_[idx];
  r.n0 = n_ - r.n1;
  r.bias.assign(m_, 0.0);  // exactly 0.0 outside the span
  if (r.n0 == 0 || r.n1 == 0) return r;
  const double* s1 = sum1_.data() + idx * m_;
  const double inv0 = 1.0 / static_cast<double>(r.n0);
  const double inv1 = 1.0 / static_cast<double>(r.n1);
  for (std::size_t j = lo_; j < hi_; ++j)
    r.bias[j] = (sum_s_[j] - s1[j]) * inv0 - s1[j] * inv1;
  window_stats(r, window);
  return r;
}

double OnlineDpa::peak_of(unsigned guess, std::size_t bit,
                          SampleWindow window) const {
  const std::size_t idx = bit * static_cast<std::size_t>(guesses_) + guess;
  const std::uint64_t c1 = n1_[idx];
  const std::uint64_t c0 = n_ - c1;
  if (c0 == 0 || c1 == 0) return 0.0;
  const double* s1 = sum1_.data() + idx * m_;
  const double inv0 = 1.0 / static_cast<double>(c0);
  const double inv1 = 1.0 / static_cast<double>(c1);
  const auto [a, b] = live_window(window.lo, window.hi, m_, lo_, hi_);
  double peak = 0.0;
  for (std::size_t j = a; j < b; ++j) {
    const double v = std::fabs((sum_s_[j] - s1[j]) * inv0 - s1[j] * inv1);
    if (v > peak) peak = v;
  }
  return peak;
}

KeyRecoveryResult OnlineDpa::recover(SampleWindow window) const {
  sync();
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
// restore_state only — not a stable interchange format. The magics
// name the format: the reference-shifted span snapshots are "qdC3" /
// "qdD3" (the unshifted full-width class tables were "qdC2" / "qdD2",
// the all-guess sums before them "qdpC" / "qdpD"; all are rejected).
constexpr std::uint32_t kCpaMagic = 0x71644333;  // "qdC3"
constexpr std::uint32_t kDpaMagic = 0x71644433;  // "qdD3"

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <typename T>
void put_vec(std::vector<std::uint8_t>& out, const T* v, std::size_t n) {
  put_u64(out, n);
  const auto* p = reinterpret_cast<const std::uint8_t*>(v);
  out.insert(out.end(), p, p + n * sizeof(T));
}

template <typename T>
void put_vec(std::vector<std::uint8_t>& out, const std::vector<T>& v) {
  put_vec(out, v.data(), v.size());
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
  template <typename T>
  void vec(std::vector<T>& out) {
    const std::uint64_t n = u64();
    if (n > (bytes_.size() - pos_) / sizeof(T)) truncated();
    out.resize(n);
    if (n > 0)  // an empty span stores empty sums; memcpy needs non-null
      std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
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

/// One class table of a snapshot: counts, then classes × (hi - lo)
/// sums over the span (zero rows for classes no trace reached).
void put_table(std::vector<std::uint8_t>& out, const detail::ClassTable& t,
               std::size_t lo, std::size_t hi) {
  const std::size_t w = hi - lo;
  put_vec(out, t.counts());
  put_u64(out, t.num_classes() * w);
  for (std::size_t c = 0; c < t.num_classes(); ++c) {
    const double* row = t.row(c);
    if (row == nullptr) {
      out.insert(out.end(), w * sizeof(double), 0);
    } else {
      const auto* p = reinterpret_cast<const std::uint8_t*>(row + lo);
      out.insert(out.end(), p, p + w * sizeof(double));
    }
  }
}

/// The shared head of both snapshots after the accumulator's own
/// fields: m, n, the span and the reference row (+0.0 while n == 0, so
/// the bytes stay a function of the trace stream and the row's length
/// bounds m by the buffer size).
void put_head(std::vector<std::uint8_t>& out, std::size_t m, std::size_t n,
              std::size_t lo, std::size_t hi, const std::vector<double>& ref) {
  put_u64(out, m);
  put_u64(out, n);
  put_u64(out, lo);
  put_u64(out, hi);
  if (n > 0) {
    put_vec(out, ref.data(), m);
  } else {
    put_u64(out, m);
    out.insert(out.end(), m * sizeof(double), 0);
  }
}

struct Head {
  std::uint64_t m = 0, n = 0, lo = 0, hi = 0;
  std::vector<double> ref;
  std::size_t width() const noexcept { return hi - lo; }
};

Head read_head(Reader& r, const char* who) {
  Head h;
  h.m = r.u64();
  h.n = r.u64();
  h.lo = r.u64();
  h.hi = r.u64();
  if (h.lo > h.hi || h.hi > h.m || (h.n == 0 && h.lo != h.hi))
    throw StateError(StateError::Kind::Geometry,
                     std::string(who) +
                         ": snapshot span lies outside its samples");
  r.vec(h.ref);
  if (h.ref.size() != h.m)
    throw StateError(StateError::Kind::Geometry,
                     std::string(who) +
                         ": snapshot reference row does not match its "
                         "sample count");
  return h;
}

/// A per-sample sum over the span, widened back to m samples.
std::vector<double> unspan(const std::vector<double>& v, const Head& h) {
  std::vector<double> out(h.m, 0.0);
  std::copy(v.begin(), v.end(), out.begin() + static_cast<std::ptrdiff_t>(h.lo));
  return out;
}

struct TableSnapshot {
  std::vector<std::uint64_t> counts;
  std::vector<double> sums;
};

/// Parse one class table and check it against the receiver's class
/// map, the snapshot's sample count and trace count. Class counts that
/// do not sum to n would make set sizes inconsistent (n - n1 could wrap
/// in bias()), so they are a Geometry error like a shape mismatch.
TableSnapshot read_table(Reader& r, const detail::ClassTable& t,
                         std::uint64_t w, std::uint64_t n, const char* who) {
  TableSnapshot s;
  r.vec(s.counts);
  r.vec(s.sums);
  const std::size_t classes = t.num_classes();
  if (s.counts.size() != classes || s.sums.size() / classes != w ||
      s.sums.size() % classes != 0)
    throw StateError(StateError::Kind::Geometry,
                     std::string(who) +
                         ": snapshot class table does not match this "
                         "accumulator's class map or span");
  std::uint64_t total = 0;
  for (std::uint64_t c : s.counts) {
    if (c > n - total)
      throw StateError(StateError::Kind::Geometry,
                       std::string(who) +
                           ": snapshot class counts exceed the trace count");
    total += c;
  }
  if (total != n)
    throw StateError(StateError::Kind::Geometry,
                     std::string(who) +
                         ": snapshot class counts do not sum to the trace "
                         "count");
  return s;
}

}  // namespace

void OnlineCpa::merge(const OnlineCpa& other) {
  if (other.guesses_ != guesses_ ||
      other.table_.num_classes() != table_.num_classes())
    throw std::invalid_argument(
        "OnlineCpa::merge: num_guesses or class maps differ");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    ensure_geometry(other.m_);
    ref_ = other.ref_;  // an empty side adopts the other's reference
  } else if (other.m_ != m_) {
    throw std::invalid_argument(
        "OnlineCpa::merge: sample geometry differs");
  }
  // Rebase other's sums onto this reference row: t - ref = t' + delta
  // with delta = other.ref - ref, so each sum gains its count times
  // delta (and sum_s2 the cross term); where delta == 0.0 the added
  // terms are +0.0 and change nothing.
  // delta is written over the final span, the hull of both spans and
  // of {delta != 0}.
  const double* d = shift_.data();
  hull(lo_, hi_, other.lo_, other.hi_);
  kernels_->shift_span(shift_.data(), other.ref_.data(), ref_.data(), m_,
                       &lo_, &hi_);
  const double no = static_cast<double>(other.n_);
  for (std::size_t j = lo_; j < hi_; ++j) {
    const double s = other.sum_s_[j];
    sum_s2_[j] += other.sum_s2_[j] + 2.0 * d[j] * s + no * d[j] * d[j];
    sum_s_[j] += s + no * d[j];
  }
  table_.merge(other.table_, m_, lo_, hi_, d);
  n_ += other.n_;
  cache_live_ = false;
  var_valid_ = false;
}

std::vector<std::uint8_t> OnlineCpa::serialize_state() const {
  std::vector<std::uint8_t> out;
  put_u64(out, kCpaMagic);
  put_u64(out, guesses_);
  put_head(out, m_, n_, lo_, hi_, ref_);
  put_vec(out, sum_s_.data() + lo_, hi_ - lo_);
  put_vec(out, sum_s2_.data() + lo_, hi_ - lo_);
  put_table(out, table_, lo_, hi_);
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
  Head h = read_head(r, "OnlineCpa::restore_state");
  std::vector<double> s, s2;
  r.vec(s);
  r.vec(s2);
  if (s.size() != h.width() || s2.size() != h.width())
    throw StateError(StateError::Kind::Geometry,
                     "OnlineCpa::restore_state: inconsistent snapshot "
                     "geometry");
  TableSnapshot t =
      read_table(r, table_, h.width(), h.n, "OnlineCpa::restore_state");
  r.expect_end();
  sum_s_ = unspan(s, h);
  sum_s2_ = unspan(s2, h);
  table_.clear_pending(m_, 0, m_);  // under the old geometry
  table_.assign(std::move(t.counts), t.sums, h.m, h.lo, h.hi);
  ref_ = std::move(h.ref);
  shift_.assign(h.m, 0.0);
  m_ = h.m;
  n_ = h.n;
  lo_ = h.lo;
  hi_ = h.hi;
  cache_live_ = false;
  var_valid_ = false;
}

void OnlineDpa::merge(const OnlineDpa& other) {
  bool same = other.guesses_ == guesses_ &&
              other.bits_.size() == bits_.size() &&
              other.tables_.size() == tables_.size();
  for (std::size_t t = 0; same && t < tables_.size(); ++t)
    same = other.tables_[t].num_classes() == tables_[t].num_classes();
  if (!same)
    throw std::invalid_argument(
        "OnlineDpa::merge: guess or selection-bit counts or class maps "
        "differ");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    ensure_geometry(other.m_);
    ref_ = other.ref_;
  } else if (other.m_ != m_) {
    throw std::invalid_argument(
        "OnlineDpa::merge: sample geometry differs");
  }
  // Rebase as in OnlineCpa::merge.
  const double* d = shift_.data();
  hull(lo_, hi_, other.lo_, other.hi_);
  kernels_->shift_span(shift_.data(), other.ref_.data(), ref_.data(), m_,
                       &lo_, &hi_);
  const double no = static_cast<double>(other.n_);
  for (std::size_t j = lo_; j < hi_; ++j) sum_s_[j] += other.sum_s_[j] + no * d[j];
  for (std::size_t t = 0; t < tables_.size(); ++t)
    tables_[t].merge(other.tables_[t], m_, lo_, hi_, d);
  n_ += other.n_;
  cache_live_ = false;
}

std::vector<std::uint8_t> OnlineDpa::serialize_state() const {
  std::vector<std::uint8_t> out;
  put_u64(out, kDpaMagic);
  put_u64(out, guesses_);
  put_u64(out, bits_.size());
  put_head(out, m_, n_, lo_, hi_, ref_);
  put_vec(out, sum_s_.data() + lo_, hi_ - lo_);
  for (const detail::ClassTable& t : tables_) put_table(out, t, lo_, hi_);
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
  Head h = read_head(r, "OnlineDpa::restore_state");
  std::vector<double> s;
  r.vec(s);
  if (s.size() != h.width())
    throw StateError(StateError::Kind::Geometry,
                     "OnlineDpa::restore_state: inconsistent snapshot "
                     "geometry");
  std::vector<TableSnapshot> tables;
  for (const detail::ClassTable& t : tables_)
    tables.push_back(
        read_table(r, t, h.width(), h.n, "OnlineDpa::restore_state"));
  r.expect_end();
  sum_s_ = unspan(s, h);
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    tables_[t].clear_pending(m_, 0, m_);  // under the old geometry
    tables_[t].assign(std::move(tables[t].counts), tables[t].sums, h.m, h.lo,
                      h.hi);
  }
  ref_ = std::move(h.ref);
  shift_.assign(h.m, 0.0);
  m_ = h.m;
  n_ = h.n;
  lo_ = h.lo;
  hi_ = h.hi;
  cache_live_ = false;
}

KeyRecoveryResult OnlineDpa::recover_single(std::size_t bit,
                                            SampleWindow window) const {
  assert(bit < bits_.size());
  sync();
  KeyRecoveryResult r;
  r.guess_peak.assign(guesses_, 0.0);
  for (unsigned g = 0; g < guesses_; ++g)
    r.guess_peak[g] = peak_of(g, bit, window);
  rank_finalize(r, guesses_);
  return r;
}

void OnlineDpa::reset() noexcept {
  n_ = 0;
  lo_ = hi_ = 0;
  std::fill(sum_s_.begin(), sum_s_.end(), 0.0);
  for (detail::ClassTable& t : tables_) {
    t.clear_pending(m_, 0, m_);
    t.reset();
  }
  cache_live_ = false;
}

}  // namespace qdi::dpa
