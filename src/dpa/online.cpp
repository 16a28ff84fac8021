#include "qdi/dpa/online.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

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
                     const kernels::KernelTable& k, bool pending) {
  const std::size_t c = cls_[v];
  ++count_[c];
  if (sum_[c].size() != m) sum_[c].assign(m, 0.0);
  k.row_add(sum_[c].data(), row, m);
  if (!pending) return;
  if (slot_[c] < 0) {
    slot_[c] = static_cast<std::int32_t>(used_++);
    if (pending_.size() < used_ * m) pending_.resize(used_ * m);
    std::fill_n(pending_.data() + (used_ - 1) * m, m, 0.0);
  }
  k.row_add(pending_.data() + static_cast<std::size_t>(slot_[c]) * m, row, m);
}

void ClassTable::fold_rows(bool full, std::size_t m,
                           std::vector<const double*>& rows,
                           std::vector<std::uint8_t>& reps) const {
  rows.clear();
  reps.clear();
  for (std::size_t c = 0; c < rep_.size(); ++c) {
    if (full) {
      if (count_[c] == 0) continue;
      rows.push_back(sum_[c].data());
    } else {
      if (slot_[c] < 0) continue;
      rows.push_back(pending_.data() + static_cast<std::size_t>(slot_[c]) * m);
    }
    reps.push_back(rep_[c]);
  }
}

void ClassTable::clear_pending() const {
  if (used_ == 0) return;
  std::fill(slot_.begin(), slot_.end(), -1);
  used_ = 0;
}

void ClassTable::merge(const ClassTable& o, std::size_t m) {
  for (std::size_t c = 0; c < count_.size(); ++c) {
    if (o.count_[c] == 0) continue;
    count_[c] += o.count_[c];
    if (sum_[c].size() != m) sum_[c].assign(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) sum_[c][j] += o.sum_[c][j];
  }
}

void ClassTable::assign(std::vector<std::uint64_t> counts,
                        const std::vector<double>& sums, std::size_t m) {
  count_ = std::move(counts);
  for (std::size_t c = 0; c < count_.size(); ++c) {
    if (count_[c] == 0)
      sum_[c].clear();
    else
      sum_[c].assign(sums.begin() + static_cast<std::ptrdiff_t>(c * m),
                     sums.begin() + static_cast<std::ptrdiff_t>((c + 1) * m));
  }
  clear_pending();
}

void ClassTable::reset() noexcept {
  std::fill(count_.begin(), count_.end(), 0);
  for (std::vector<double>& r : sum_) std::fill(r.begin(), r.end(), 0.0);
  clear_pending();
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
      table_(model_.byte(), {lut_.data()}, guesses_) {}

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
}

void OnlineCpa::add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi) {
  hi = std::min(hi, ts.size());
  if (lo >= hi) return;
  check_byte("OnlineCpa", model_.byte(), ts.plaintext(lo).size());
  ensure_geometry(ts.num_samples());
  // Per trace: the shared per-sample moments and one class-row add,
  // both in trace order, so blocking never changes a state bit.
  const auto byte = static_cast<std::size_t>(model_.byte());
  for (std::size_t i = lo; i < hi; ++i) {
    const double* row = ts.matrix().row(i).data();
    kernels_->cpa_moments(sum_s_.data(), sum_s2_.data(), &row, 1, m_);
    table_.add(row, ts.plaintext(i)[byte], m_, *kernels_, cache_live_);
  }
  n_ += hi - lo;
  var_valid_ = false;
}

void OnlineCpa::sync() const {
  // Build from every class total, or fold the rows touched since the
  // last read, in class order: sum_hs[g] += h(c, g) * rows[c], through
  // the rank-update kernel with class rows in place of trace rows.
  const bool full = !cache_live_;
  table_.fold_rows(full, m_, fold_rows_, fold_reps_);
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
    kernels_->cpa_rank_update(sum_hs_.data(), fold_rows_.data() + i0, hyp, cnt,
                              guesses_, m_);
  }
  table_.clear_pending();
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
  sync();
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
  sync();
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
}

void OnlineDpa::add_prefix(const TraceSet& ts, std::size_t lo, std::size_t hi) {
  hi = std::min(hi, ts.size());
  if (lo >= hi) return;
  for (const SelectionFn& d : bits_)
    check_byte("OnlineDpa", d.byte(), ts.plaintext(lo).size());
  ensure_geometry(ts.num_samples());
  for (std::size_t i = lo; i < hi; ++i) {
    const double* row = ts.matrix().row(i).data();
    const std::uint8_t* pt = ts.plaintext(i).data();
    kernels_->row_add(sum_s_.data(), row, m_);
    for (detail::ClassTable& t : tables_)
      t.add(row, pt[t.byte()], m_, *kernels_, cache_live_);
  }
  n_ += hi - lo;
}

void OnlineDpa::sync() const {
  // Build or fold (see OnlineCpa::sync): per (bit, guess), the masked-
  // sum kernel adds the class rows whose D decision is 1, with the D
  // column over the block's classes as its {0.0, 1.0} mask. Blocks of
  // kBlock class rows stay cache-resident while every (bit, guess)
  // sweeps them; each cell still sees the classes in class order.
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
    table.fold_rows(full, m_, fold_rows_, fold_reps_);
    if (fold_rows_.empty()) continue;
    folded = true;
    for (std::size_t i0 = 0; i0 < fold_rows_.size(); i0 += kBlock) {
      const std::size_t cnt = std::min(kBlock, fold_rows_.size() - i0);
      for (std::size_t b = 0; b < bits_.size(); ++b) {
        if (table_of_[b] != t) continue;
        for (unsigned g = 0; g < guesses_; ++g) {
          for (std::size_t c = 0; c < cnt; ++c)
            mask[c] = lut_[(b * 256 + fold_reps_[i0 + c]) * G + g];
          kernels_->masked_sum(sum1_.data() + (b * G + g) * m_,
                               fold_rows_.data() + i0, mask, cnt, m_);
        }
      }
    }
    table.clear_pending();
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
  const std::uint64_t c1 = n1_[idx];
  const std::uint64_t c0 = n_ - c1;
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
// name the format: the class-table snapshots are "qdC2" / "qdD2" (the
// earlier all-guess sums were "qdpC" / "qdpD" and are rejected).
constexpr std::uint32_t kCpaMagic = 0x71644332;  // "qdC2"
constexpr std::uint32_t kDpaMagic = 0x71644432;  // "qdD2"

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <typename T>
void put_vec(std::vector<std::uint8_t>& out, const std::vector<T>& v) {
  put_u64(out, v.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(T));
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

void add_into(std::vector<double>& dst, const std::vector<double>& src) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

/// One class table of a snapshot: counts, then classes × m sums (zero
/// rows for classes no trace reached).
void put_table(std::vector<std::uint8_t>& out, const detail::ClassTable& t,
               std::size_t m) {
  put_vec(out, t.counts());
  put_u64(out, t.num_classes() * m);
  for (std::size_t c = 0; c < t.num_classes(); ++c) {
    const double* row = t.row(c);
    if (row == nullptr) {
      out.insert(out.end(), m * sizeof(double), 0);
    } else {
      const auto* p = reinterpret_cast<const std::uint8_t*>(row);
      out.insert(out.end(), p, p + m * sizeof(double));
    }
  }
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
                         std::uint64_t m, std::uint64_t n, const char* who) {
  TableSnapshot s;
  r.vec(s.counts);
  r.vec(s.sums);
  const std::size_t classes = t.num_classes();
  if (s.counts.size() != classes || s.sums.size() / classes != m ||
      s.sums.size() % classes != 0)
    throw StateError(StateError::Kind::Geometry,
                     std::string(who) +
                         ": snapshot class table does not match this "
                         "accumulator's class map or sample count");
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
  } else if (other.m_ != m_) {
    throw std::invalid_argument(
        "OnlineCpa::merge: sample geometry differs");
  }
  add_into(sum_s_, other.sum_s_);
  add_into(sum_s2_, other.sum_s2_);
  table_.merge(other.table_, m_);
  n_ += other.n_;
  cache_live_ = false;
  var_valid_ = false;
}

std::vector<std::uint8_t> OnlineCpa::serialize_state() const {
  std::vector<std::uint8_t> out;
  put_u64(out, kCpaMagic);
  put_u64(out, guesses_);
  put_u64(out, m_);
  put_u64(out, n_);
  put_vec(out, sum_s_);
  put_vec(out, sum_s2_);
  put_table(out, table_, m_);
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
  std::vector<double> s, s2;
  r.vec(s);
  r.vec(s2);
  if (s.size() != m || s2.size() != m)
    throw StateError(StateError::Kind::Geometry,
                     "OnlineCpa::restore_state: inconsistent snapshot "
                     "geometry");
  TableSnapshot t = read_table(r, table_, m, n, "OnlineCpa::restore_state");
  r.expect_end();
  sum_s_ = std::move(s);
  sum_s2_ = std::move(s2);
  table_.assign(std::move(t.counts), t.sums, m);
  m_ = m;
  n_ = n;
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
  } else if (other.m_ != m_) {
    throw std::invalid_argument(
        "OnlineDpa::merge: sample geometry differs");
  }
  add_into(sum_s_, other.sum_s_);
  for (std::size_t t = 0; t < tables_.size(); ++t)
    tables_[t].merge(other.tables_[t], m_);
  n_ += other.n_;
  cache_live_ = false;
}

std::vector<std::uint8_t> OnlineDpa::serialize_state() const {
  std::vector<std::uint8_t> out;
  put_u64(out, kDpaMagic);
  put_u64(out, guesses_);
  put_u64(out, bits_.size());
  put_u64(out, m_);
  put_u64(out, n_);
  put_vec(out, sum_s_);
  for (const detail::ClassTable& t : tables_) put_table(out, t, m_);
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
  std::vector<double> s;
  r.vec(s);
  if (s.size() != m)
    throw StateError(StateError::Kind::Geometry,
                     "OnlineDpa::restore_state: inconsistent snapshot "
                     "geometry");
  std::vector<TableSnapshot> tables;
  for (const detail::ClassTable& t : tables_)
    tables.push_back(read_table(r, t, m, n, "OnlineDpa::restore_state"));
  r.expect_end();
  sum_s_ = std::move(s);
  for (std::size_t t = 0; t < tables_.size(); ++t)
    tables_[t].assign(std::move(tables[t].counts), tables[t].sums, m);
  m_ = m;
  n_ = n;
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
  std::fill(sum_s_.begin(), sum_s_.end(), 0.0);
  for (detail::ClassTable& t : tables_) t.reset();
  cache_live_ = false;
}

}  // namespace qdi::dpa
