// Tests for the streaming analysis engine (dpa::OnlineCpa /
// dpa::OnlineDpa) and the fused acquire-and-attack campaign mode:
//
//  * property tests — randomized (n, m, guesses, prefixes) trace sets,
//    online results vs the legacy batch formulas re-derived naively
//    here, to 1e-12 (the naive oracles call the predictor per trace, so
//    they also check the engine's LUT tabulation);
//  * one-row add_prefix() feeds vs one bulk call, bit-identical state;
//  * the class-table contract: state independent of interleaved reads,
//    a read every 8 traces within 1e-12 of one final read, the class
//    map (64 DES / 256 AES classes), bits on two plaintext bytes;
//  * a predictor whose plaintext byte lies past the set's plaintext
//    stride is rejected before any state moves;
//  * the reference shift: constant samples read exactly 0.0, the live
//    span, a span that widens between reads, and pending rows that do
//    not outlive reset() or restore_state();
//  * CpaResult/KeyRecoveryResult tie handling (ties rank below; an
//    exactly-zero score ranks last);
//  * fused-campaign results == materialized-TraceSet results on two
//    registry targets, including MTD and the rank trajectory;
//  * fused-campaign peak RSS independent of the trace count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qdi/qdi.hpp"

#ifdef __linux__
#include <sys/resource.h>
#endif

namespace qd = qdi::dpa;
namespace qp = qdi::power;
namespace qu = qdi::util;
namespace qc = qdi::campaign;

namespace {

/// Random trace set: m gaussian samples per trace, 2-byte plaintexts
/// (so models reading byte 1 are exercised too).
qd::TraceSet random_traces(std::size_t n, std::size_t m, qu::Rng& rng) {
  qd::TraceSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    qp::PowerTrace t(0.0, 10.0, m);
    for (std::size_t j = 0; j < m; ++j) t[j] = rng.gaussian(1.0, 2.0);
    ts.add(t, {rng.byte(), rng.byte()});
  }
  return ts;
}

/// The seed implementation of one-guess correlation columns, verbatim:
/// per-guess recomputation of every sum, straight from the definition.
std::vector<double> naive_correlation(const qd::TraceSet& ts,
                                      const qd::LeakageModel& model,
                                      unsigned guess, std::size_t n) {
  const std::size_t m = ts.num_samples();
  std::vector<double> h(n);
  for (std::size_t i = 0; i < n; ++i) h[i] = model(ts.plaintext(i), guess);
  double sum_h = 0.0, sum_h2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum_h += h[i];
    sum_h2 += h[i] * h[i];
  }
  std::vector<double> sum_s(m, 0.0), sum_s2(m, 0.0), sum_hs(m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = ts.trace(i).samples();
    for (std::size_t j = 0; j < m; ++j) {
      sum_s[j] += s[j];
      sum_s2[j] += s[j] * s[j];
      sum_hs[j] += h[i] * s[j];
    }
  }
  std::vector<double> rho(m, 0.0);
  const double nn = static_cast<double>(n);
  const double var_h = sum_h2 - sum_h * sum_h / nn;
  if (var_h <= 0.0) return rho;
  for (std::size_t j = 0; j < m; ++j) {
    const double var_s = sum_s2[j] - sum_s[j] * sum_s[j] / nn;
    if (var_s <= 0.0) continue;
    rho[j] = (sum_hs[j] - sum_h * sum_s[j] / nn) / std::sqrt(var_h * var_s);
  }
  return rho;
}

/// The seed implementation of the DPA bias: two split means (eq. 8/9).
std::vector<double> naive_bias(const qd::TraceSet& ts, const qd::SelectionFn& d,
                               unsigned guess, std::size_t n) {
  const std::size_t m = ts.num_samples();
  std::vector<double> sum0(m, 0.0), sum1(m, 0.0);
  std::size_t n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = ts.trace(i).samples();
    if (d(ts.plaintext(i), guess) == 0) {
      ++n0;
      for (std::size_t j = 0; j < m; ++j) sum0[j] += s[j];
    } else {
      ++n1;
      for (std::size_t j = 0; j < m; ++j) sum1[j] += s[j];
    }
  }
  std::vector<double> bias(m, 0.0);
  if (n0 == 0 || n1 == 0) return bias;
  for (std::size_t j = 0; j < m; ++j)
    bias[j] = sum0[j] / static_cast<double>(n0) - sum1[j] / static_cast<double>(n1);
  return bias;
}

}  // namespace

// ---- property tests vs the legacy batch formulas ---------------------------

TEST(OnlineCpa, MatchesNaiveFormulasOnRandomInputs) {
  qu::Rng rng(0xabc);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 5 + rng.below(96);
    const std::size_t m = 1 + rng.below(24);
    const unsigned guesses = 2 + static_cast<unsigned>(rng.below(15));
    const int byte = static_cast<int>(rng.below(2));
    const qd::TraceSet ts = random_traces(n, m, rng);
    const qd::LeakageModel model = qd::aes_xor_hw_model(byte);

    // A handful of prefixes per trial, online sums advanced once.
    qd::OnlineCpa acc(model, guesses);
    std::size_t reads = 0;
    for (const std::size_t prefix : {n / 3, n / 2, n}) {
      if (prefix == 0 || prefix < acc.count()) continue;
      acc.add_prefix(ts, acc.count(), prefix);
      const qd::CpaResult r = acc.finalize();
      ASSERT_EQ(r.correlation.size(), guesses);
      for (unsigned g = 0; g < guesses; ++g) {
        const std::vector<double> rho = naive_correlation(ts, model, g, prefix);
        double peak = 0.0;
        for (double v : rho) peak = std::max(peak, std::fabs(v));
        EXPECT_NEAR(r.correlation[g], peak, 1e-12)
            << "trial " << trial << " prefix " << prefix << " guess " << g;
      }
      // The batch wrapper is the same engine. At the first probe both
      // read once: exact agreement. Later probes fold the classes
      // touched since the previous read, so they agree with the batch
      // wrapper's single read to rounding (read-schedule contract,
      // qdi/dpa/online.hpp).
      const qd::CpaResult batch = qd::cpa_attack(ts, model, guesses, prefix);
      const bool first_read = reads++ == 0;
      for (unsigned g = 0; g < guesses; ++g) {
        if (first_read)
          EXPECT_DOUBLE_EQ(r.correlation[g], batch.correlation[g]);
        else
          EXPECT_NEAR(r.correlation[g], batch.correlation[g],
                      1e-12 * std::fabs(batch.correlation[g]));
      }
      EXPECT_EQ(r.best_guess, batch.best_guess);
    }
  }
}

TEST(OnlineDpa, MatchesNaiveFormulasOnRandomInputs) {
  qu::Rng rng(0xdef);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 5 + rng.below(96);
    const std::size_t m = 1 + rng.below(24);
    const unsigned guesses = 2 + static_cast<unsigned>(rng.below(15));
    const int bit = static_cast<int>(rng.below(8));
    const qd::TraceSet ts = random_traces(n, m, rng);
    const qd::SelectionFn d = qd::aes_sbox_selection(0, bit);

    qd::OnlineDpa acc({d}, guesses);
    std::size_t reads = 0;
    for (const std::size_t prefix : {n / 2, n}) {
      if (prefix == 0 || prefix < acc.count()) continue;
      acc.add_prefix(ts, acc.count(), prefix);
      for (unsigned g = 0; g < guesses; ++g) {
        const qd::BiasResult b = acc.bias(g);
        const std::vector<double> ref = naive_bias(ts, d, g, prefix);
        ASSERT_EQ(b.bias.size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j)
          EXPECT_NEAR(b.bias[j], ref[j], 1e-12)
              << "trial " << trial << " guess " << g << " sample " << j;
      }
      // Wrapper agreement (same engine): exact at the first read, to
      // rounding once a read folds (see OnlineCpa above).
      const qd::KeyRecoveryResult batch =
          qd::recover_key(ts, d, guesses, prefix);
      const qd::KeyRecoveryResult online = acc.recover();
      const bool first_read = reads++ == 0;
      for (unsigned g = 0; g < guesses; ++g) {
        if (first_read)
          EXPECT_DOUBLE_EQ(online.guess_peak[g], batch.guess_peak[g]);
        else
          EXPECT_NEAR(online.guess_peak[g], batch.guess_peak[g],
                      1e-12 * std::fabs(batch.guess_peak[g]));
      }
    }
  }
}

TEST(OnlineAnalysis, OneRowAddPrefixAgreesWithBulkAddPrefix) {
  qu::Rng rng(9);
  const qd::TraceSet ts = random_traces(50, 10, rng);
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  qd::OnlineCpa one(model, 16);
  for (std::size_t i = 0; i < ts.size(); ++i) one.add_prefix(ts, i, i + 1);
  qd::OnlineCpa bulk(model, 16);
  bulk.add_prefix(ts, 0, ts.size());
  EXPECT_EQ(one.serialize_state(), bulk.serialize_state());
  const qd::CpaResult a = one.finalize();
  const qd::CpaResult b = bulk.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.correlation[g], b.correlation[g]);

  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(1, 2)};
  qd::OnlineDpa dpa_one(bits, 16);
  for (std::size_t i = 0; i < ts.size(); ++i) dpa_one.add_prefix(ts, i, i + 1);
  qd::OnlineDpa dpa_bulk(bits, 16);
  dpa_bulk.add_prefix(ts, 0, ts.size());
  EXPECT_EQ(dpa_one.serialize_state(), dpa_bulk.serialize_state());
}

// ---- class tables and the read-schedule contract ---------------------------

namespace {

/// Planted first-order leak: sample 7 carries 1.5 x HW(SBOX(p0 ^ key)),
/// the rest is gaussian noise (2-byte plaintexts).
qd::TraceSet leaking_traces(std::size_t n, std::uint8_t key, qu::Rng& rng) {
  qd::TraceSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t p = rng.byte();
    qp::PowerTrace t(0.0, 10.0, 24);
    for (std::size_t j = 0; j < 24; ++j) t[j] = rng.gaussian(0.0, 1.0);
    t[7] += 1.5 * static_cast<double>(__builtin_popcount(
                      qdi::crypto::aes_sbox(static_cast<std::uint8_t>(p ^ key))));
    ts.add(t, {p, rng.byte()});
  }
  return ts;
}

void expect_relatively_near(const std::vector<double>& a,
                            const std::vector<double>& b, double rel) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], rel * std::fabs(b[i])) << "index " << i;
}

}  // namespace

TEST(OnlineAnalysis, StateIsIndependentOfInterleavedReads) {
  qu::Rng rng(0x61);
  const qd::TraceSet ts = random_traces(90, 13, rng);
  const qd::LeakageModel model = qd::aes_sbox_hw_model(1);
  qd::OnlineCpa quiet(model, 32), probed(model, 32);
  quiet.add_prefix(ts, 0, ts.size());
  for (std::size_t i = 0; i < ts.size(); i += 7) {
    probed.add_prefix(ts, i, i + 7);
    (void)probed.finalize();
    if (i % 21 == 0) (void)probed.correlation_trace(3);
  }
  EXPECT_EQ(probed.serialize_state(), quiet.serialize_state());

  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 2),
                                             qd::aes_sbox_selection(1, 6)};
  qd::OnlineDpa dquiet(bits, 32), dprobed(bits, 32);
  dquiet.add_prefix(ts, 0, ts.size());
  for (std::size_t i = 0; i < ts.size(); i += 5) {
    dprobed.add_prefix(ts, i, i + 5);
    (void)dprobed.recover();
    if (i % 15 == 0) (void)dprobed.bias(4, 1);
  }
  EXPECT_EQ(dprobed.serialize_state(), dquiet.serialize_state());
}

TEST(OnlineAnalysis, ReadEveryEightTracesMatchesOneFinalRead) {
  const std::uint8_t key = 0xa7;
  qu::Rng rng(0x62);
  const qd::TraceSet ts = leaking_traces(600, key, rng);

  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  qd::OnlineCpa once(model, 256), every8(model, 256);
  once.add_prefix(ts, 0, ts.size());
  for (std::size_t i = 0; i < ts.size(); i += 8) {
    every8.add_prefix(ts, i, i + 8);
    (void)every8.finalize();
  }
  const qd::CpaResult a = every8.finalize();
  const qd::CpaResult b = once.finalize();
  expect_relatively_near(a.correlation, b.correlation, 1e-12);
  EXPECT_EQ(a.best_guess, key);
  EXPECT_EQ(b.best_guess, key);
  EXPECT_EQ(a.rank_of(key), b.rank_of(key));
  expect_relatively_near(every8.correlation_trace(key),
                         once.correlation_trace(key), 1e-12);

  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0),
                                             qd::aes_sbox_selection(0, 7)};
  qd::OnlineDpa donce(bits, 256), devery8(bits, 256);
  donce.add_prefix(ts, 0, ts.size());
  for (std::size_t i = 0; i < ts.size(); i += 8) {
    devery8.add_prefix(ts, i, i + 8);
    (void)devery8.recover();
  }
  const qd::KeyRecoveryResult da = devery8.recover();
  const qd::KeyRecoveryResult db = donce.recover();
  expect_relatively_near(da.guess_peak, db.guess_peak, 1e-12);
  EXPECT_EQ(da.best_guess, key);
  EXPECT_EQ(db.best_guess, key);
  EXPECT_EQ(da.rank_of(key), db.rank_of(key));
  expect_relatively_near(devery8.bias(key, 1).bias, donce.bias(key, 1).bias,
                         1e-12);
}

TEST(OnlineAnalysis, ClassMapFollowsThePredictors) {
  // DES predictors read the 6-bit S-box input, so v and v ^ 0x40 (and
  // the top two bits in general) are indistinguishable: 64 classes.
  const qd::OnlineCpa des_cpa(qd::des_sbox_hw_model(1), 64);
  EXPECT_EQ(des_cpa.num_classes(), 64u);
  std::vector<qd::SelectionFn> des_bits;
  for (int b = 0; b < 4; ++b) des_bits.push_back(qd::des_sbox_selection(1, b));
  const qd::OnlineDpa des_dpa(des_bits, 64);
  EXPECT_EQ(des_dpa.num_classes(), 64u);

  // AES predictors separate every byte value: 256 classes.
  const qd::OnlineCpa aes_cpa(qd::aes_sbox_hw_model(0), 256);
  EXPECT_EQ(aes_cpa.num_classes(), 256u);
  std::vector<qd::SelectionFn> aes_bits;
  for (int b = 0; b < 8; ++b) aes_bits.push_back(qd::aes_sbox_selection(0, b));
  const qd::OnlineDpa aes_dpa(aes_bits, 256);
  EXPECT_EQ(aes_dpa.num_classes(), 256u);

  // A single guess collapses a selection bit to its two decisions.
  const qd::OnlineDpa pinned({qd::aes_sbox_selection(0, 3).pinned(9)}, 1);
  EXPECT_EQ(pinned.num_classes(), 2u);
}

TEST(OnlineDpa, BitsOnTwoPlaintextBytesMatchNaiveBias) {
  qu::Rng rng(0x63);
  const qd::TraceSet ts = random_traces(120, 17, rng);
  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 1),
                                             qd::aes_sbox_selection(1, 4),
                                             qd::aes_xor_selection(1, 2)};
  const unsigned guesses = 12;
  qd::OnlineDpa acc(bits, guesses);
  for (const std::size_t prefix : {std::size_t{40}, std::size_t{77},
                                   std::size_t{120}}) {
    acc.add_prefix(ts, acc.count(), prefix);
    for (unsigned g = 0; g < guesses; ++g) {
      for (std::size_t b = 0; b < bits.size(); ++b) {
        const qd::BiasResult r = acc.bias(g, b);
        const std::vector<double> ref = naive_bias(ts, bits[b], g, prefix);
        ASSERT_EQ(r.bias.size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j)
          EXPECT_NEAR(r.bias[j], ref[j], 1e-12)
              << "prefix " << prefix << " guess " << g << " bit " << b;
      }
    }
  }
}

TEST(OnlineAnalysis, PredictorByteOutsidePlaintextStrideThrows) {
  // 1-byte plaintexts: a model of byte 3 or a selection of byte 2 would
  // read the next traces' bytes. The check fires before any state moves.
  qu::Rng rng(13);
  qd::TraceSet ts;
  for (std::size_t i = 0; i < 20; ++i) {
    qp::PowerTrace t(0.0, 10.0, 6);
    for (std::size_t j = 0; j < 6; ++j) t[j] = rng.gaussian(0.0, 1.0);
    ts.add(t, {rng.byte()});
  }
  qd::OnlineCpa cpa(qd::aes_sbox_hw_model(3), 256);
  EXPECT_THROW(cpa.add_prefix(ts, 0, ts.size()), std::invalid_argument);
  EXPECT_EQ(cpa.count(), 0u);
  EXPECT_THROW((void)qd::cpa_attack(ts, qd::aes_sbox_hw_model(3), 256),
               std::invalid_argument);

  qd::OnlineDpa dpa({qd::aes_sbox_selection(0, 1), qd::aes_xor_selection(2, 0)},
                    256);
  EXPECT_THROW(dpa.add_prefix(ts, 0, ts.size()), std::invalid_argument);
  EXPECT_EQ(dpa.count(), 0u);
  EXPECT_THROW((void)qd::recover_key(ts, qd::aes_xor_selection(2, 0), 256),
               std::invalid_argument);

  // The last in-stride byte is accepted.
  qd::OnlineCpa ok(qd::aes_sbox_hw_model(0), 256);
  ok.add_prefix(ts, 0, ts.size());
  EXPECT_EQ(ok.count(), ts.size());
}

// ---- reference shift and live span ----------------------------------------

namespace {

/// Append n traces with a DC level of ~1000 everywhere, a planted HW
/// leak at sample `leak` and gaussian noise on samples [vary_lo,
/// vary_hi) only; every other sample is the same constant in every
/// trace.
void add_spanned(qd::TraceSet& ts, std::size_t n, std::size_t m,
                 std::size_t vary_lo, std::size_t vary_hi, std::size_t leak,
                 std::uint8_t key, qu::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t p = rng.byte();
    qp::PowerTrace t(0.0, 10.0, m);
    for (std::size_t j = 0; j < m; ++j)
      t[j] = 1000.0 + 0.1 * static_cast<double>(j);
    for (std::size_t j = vary_lo; j < vary_hi; ++j)
      t[j] += rng.gaussian(0.0, 1.0);
    t[leak] += 1.5 * static_cast<double>(__builtin_popcount(
                         qdi::crypto::aes_sbox(static_cast<std::uint8_t>(p ^ key))));
    ts.add(t, {p, rng.byte()});
  }
}

}  // namespace

TEST(OnlineAnalysis, ConstantSamplesReadExactlyZero) {
  // Samples where every trace equals the first carry exactly zero
  // shifted sums: correlation and bias read 0.0 there, not the
  // cancellation residue of raw moments at a DC level of ~1000.
  const std::uint8_t key = 0x3d;
  qu::Rng rng(0x64);
  qd::TraceSet ts;
  add_spanned(ts, 300, 40, 12, 20, 15, key, rng);
  qd::OnlineCpa cpa(qd::aes_sbox_hw_model(0), 256);
  cpa.add_prefix(ts, 0, ts.size());
  EXPECT_EQ(cpa.span_lo(), 12u);
  EXPECT_EQ(cpa.span_hi(), 20u);
  const qd::CpaResult r = cpa.finalize();
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.best_sample, 15u);
  const std::vector<double> rho = cpa.correlation_trace(key);
  for (std::size_t j = 0; j < rho.size(); ++j)
    if (j < 12 || j >= 20) EXPECT_EQ(rho[j], 0.0) << "sample " << j;
  // A window holding constant samples only reads all-zero scores, and
  // an all-zero reference score ranks last.
  const qd::CpaResult flat = cpa.finalize(25, 40);
  for (double c : flat.correlation) EXPECT_EQ(c, 0.0);
  EXPECT_EQ(flat.rank_of(key), 255u);

  qd::OnlineDpa dpa({qd::aes_sbox_selection(0, 0)}, 256);
  dpa.add_prefix(ts, 0, ts.size());
  const qd::BiasResult b = dpa.bias(key);
  for (std::size_t j = 0; j < b.bias.size(); ++j)
    if (j < 12 || j >= 20) EXPECT_EQ(b.bias[j], 0.0) << "sample " << j;
  EXPECT_EQ(dpa.recover().best_guess, key);

  // Bitwise-identical traces: no live sample, all-zero outcomes.
  qd::TraceSet same;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::vector<std::uint8_t> pt = {static_cast<std::uint8_t>(i * 7), 0};
    same.add(ts.trace(0), pt);
  }
  qd::OnlineCpa flat_cpa(qd::aes_sbox_hw_model(0), 256);
  flat_cpa.add_prefix(same, 0, same.size());
  EXPECT_EQ(flat_cpa.span_lo(), flat_cpa.span_hi());
  const qd::CpaResult z = flat_cpa.finalize();
  for (double c : z.correlation) EXPECT_EQ(c, 0.0);
  EXPECT_EQ(z.rank_of(key), 255u);
  EXPECT_EQ(qd::cpa_measurements_to_disclosure(same, qd::aes_sbox_hw_model(0),
                                               256, key),
            0u);
  const qd::KeyRecoveryResult kz =
      qd::recover_key(same, qd::aes_sbox_selection(0, 0), 256);
  for (double p : kz.guess_peak) EXPECT_EQ(p, 0.0);
  EXPECT_EQ(kz.rank_of(key), 255u);
}

TEST(OnlineAnalysis, SpanWideningBetweenReadsMatchesOneFinalRead) {
  // The first 40 traces vary on [10, 14) only, the rest on [3, 20):
  // the span widens between two reads, over cache columns and pending
  // rows that must read as +0.0 there. The folded reads end within
  // 1e-12 of one final read, with the same outcome.
  const std::uint8_t key = 0x91;
  qu::Rng rng(0x65);
  qd::TraceSet ts;
  add_spanned(ts, 40, 24, 10, 14, 12, key, rng);
  add_spanned(ts, 360, 24, 3, 20, 12, key, rng);

  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  qd::OnlineCpa once(model, 256), probed(model, 256);
  once.add_prefix(ts, 0, ts.size());
  for (std::size_t i = 0; i < ts.size(); i += 8) {
    probed.add_prefix(ts, i, i + 8);
    (void)probed.finalize();
    if (i + 8 == 40) {
      EXPECT_EQ(probed.span_lo(), 10u);
      EXPECT_EQ(probed.span_hi(), 14u);
    }
  }
  EXPECT_EQ(probed.span_lo(), 3u);
  EXPECT_EQ(probed.span_hi(), 20u);
  EXPECT_EQ(probed.serialize_state(), once.serialize_state());
  const qd::CpaResult a = probed.finalize();
  const qd::CpaResult b = once.finalize();
  expect_relatively_near(a.correlation, b.correlation, 1e-12);
  EXPECT_EQ(a.best_guess, key);
  EXPECT_EQ(b.best_guess, key);
  EXPECT_EQ(a.best_sample, b.best_sample);
  EXPECT_EQ(a.rank_of(key), b.rank_of(key));
  expect_relatively_near(probed.correlation_trace(key),
                         once.correlation_trace(key), 1e-12);

  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0),
                                             qd::aes_sbox_selection(0, 5)};
  qd::OnlineDpa donce(bits, 256), dprobed(bits, 256);
  donce.add_prefix(ts, 0, ts.size());
  for (std::size_t i = 0; i < ts.size(); i += 8) {
    dprobed.add_prefix(ts, i, i + 8);
    (void)dprobed.recover();
  }
  EXPECT_EQ(dprobed.serialize_state(), donce.serialize_state());
  const qd::KeyRecoveryResult da = dprobed.recover();
  const qd::KeyRecoveryResult db = donce.recover();
  expect_relatively_near(da.guess_peak, db.guess_peak, 1e-12);
  EXPECT_EQ(da.best_guess, db.best_guess);
  EXPECT_EQ(da.rank_of(key), db.rank_of(key));
  expect_relatively_near(dprobed.bias(key, 1).bias, donce.bias(key, 1).bias,
                         1e-12);
}

TEST(OnlineAnalysis, PendingRowsDoNotOutliveResetOrRestore) {
  // `used` leaves pending rows over [3, 20) behind, then is reset (or
  // restored from a snapshot) and fed a stream whose span starts at
  // [10, 14) and widens later. Reads must equal, bit for bit, those of
  // an accumulator that never saw the first stream.
  const std::uint8_t key = 0x5e;
  qu::Rng rng(0x66);
  qd::TraceSet wide, ts;
  add_spanned(wide, 16, 24, 3, 20, 12, key, rng);
  add_spanned(ts, 16, 24, 10, 14, 12, key, rng);
  add_spanned(ts, 48, 24, 3, 20, 12, key, rng);
  const auto dirty = [&](auto& acc, const auto& read) {
    acc.add_prefix(wide, 0, 8);
    read(acc);
    acc.add_prefix(wide, 8, 16);  // pending, never read
  };
  const auto check = [&](auto& used, auto& fresh, const auto& read,
                         std::size_t first) {
    for (auto* acc : {&used, &fresh}) {
      (void)read(*acc);
      acc->add_prefix(ts, first, ts.size());
    }
    EXPECT_EQ(used.span_lo(), 3u);
    EXPECT_EQ(read(used), read(fresh));
  };
  const auto cpa_read = [](const qd::OnlineCpa& a) {
    return a.finalize().correlation;
  };
  const auto dpa_read = [](const qd::OnlineDpa& a) {
    return a.recover().guess_peak;
  };
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 3)};

  {  // reset
    qd::OnlineCpa used(model, 256), fresh(model, 256);
    dirty(used, cpa_read);
    used.reset();
    used.add_prefix(ts, 0, 16);
    fresh.add_prefix(ts, 0, 16);
    check(used, fresh, cpa_read, 16);
    qd::OnlineDpa dused(bits, 256), dfresh(bits, 256);
    dirty(dused, dpa_read);
    dused.reset();
    dused.add_prefix(ts, 0, 16);
    dfresh.add_prefix(ts, 0, 16);
    check(dused, dfresh, dpa_read, 16);
  }
  {  // restore
    qd::OnlineCpa src(model, 256), used(model, 256), fresh(model, 256);
    src.add_prefix(ts, 0, 16);
    dirty(used, cpa_read);
    used.restore_state(src.serialize_state());
    fresh.restore_state(src.serialize_state());
    check(used, fresh, cpa_read, 16);
    qd::OnlineDpa dsrc(bits, 256), dused(bits, 256), dfresh(bits, 256);
    dsrc.add_prefix(ts, 0, 16);
    dirty(dused, dpa_read);
    dused.restore_state(dsrc.serialize_state());
    dfresh.restore_state(dsrc.serialize_state());
    check(dused, dfresh, dpa_read, 16);
  }
}

// ---- tie handling ----------------------------------------------------------

TEST(RankOf, TiedScoresRankBelowTheReference) {
  // Duplicated columns: guesses 1 and 3 tie exactly with the reference.
  qd::CpaResult cpa;
  cpa.correlation = {0.7, 0.7, 0.2, 0.7, 0.9};
  EXPECT_EQ(cpa.rank_of(0), 1u);  // only the 0.9 ranks above
  EXPECT_EQ(cpa.rank_of(1), 1u);  // same for every member of the tie
  EXPECT_EQ(cpa.rank_of(3), 1u);
  EXPECT_EQ(cpa.rank_of(4), 0u);

  qd::KeyRecoveryResult dpa;
  dpa.guess_peak = {1.5, 1.5, 2.5, 1.5};
  EXPECT_EQ(dpa.rank_of(0), 1u);
  EXPECT_EQ(dpa.rank_of(1), 1u);
  EXPECT_EQ(dpa.rank_of(3), 1u);
  EXPECT_EQ(dpa.rank_of(2), 0u);
}

TEST(RankOf, ZeroScoreRanksLast) {
  // A score of exactly 0.0 is no evidence: the reference ranks below
  // every other guess (G - 1), tied or not; nonzero references keep
  // the tie rule above.
  qd::CpaResult cpa;
  cpa.correlation = {0.0, 0.3, 0.0, 0.1};
  EXPECT_EQ(cpa.rank_of(0), 3u);
  EXPECT_EQ(cpa.rank_of(2), 3u);
  EXPECT_EQ(cpa.rank_of(1), 0u);
  EXPECT_EQ(cpa.rank_of(3), 1u);
  cpa.correlation.assign(5, 0.0);
  for (unsigned g = 0; g < 5; ++g) EXPECT_EQ(cpa.rank_of(g), 4u);

  qd::KeyRecoveryResult dpa;
  dpa.guess_peak = {2.0, 0.0, 0.0};
  EXPECT_EQ(dpa.rank_of(1), 2u);
  EXPECT_EQ(dpa.rank_of(2), 2u);
  EXPECT_EQ(dpa.rank_of(0), 0u);
  dpa.guess_peak.assign(64, 0.0);
  EXPECT_EQ(dpa.rank_of(17), 63u);
}

TEST(RankOf, DuplicatedModelColumnsTieExactly) {
  // A model that cannot tell guesses apart beyond their low bit produces
  // numerically IDENTICAL correlation columns for g and g+2 — the online
  // engine computes them from the same sums, so the tie is exact and the
  // true guess keeps rank 0 among its ghosts.
  const qd::LeakageModel degenerate = qd::LeakageModel::byte_indexed(
      0, [](std::uint8_t v, unsigned g) {
        return static_cast<double>((v ^ g) & 1);
      });
  qu::Rng rng(10);
  const qd::TraceSet ts = random_traces(80, 8, rng);
  const qd::CpaResult r = qd::cpa_attack(ts, degenerate, 8);
  EXPECT_DOUBLE_EQ(r.correlation[0], r.correlation[2]);
  EXPECT_DOUBLE_EQ(r.correlation[0], r.correlation[4]);
  EXPECT_DOUBLE_EQ(r.correlation[1], r.correlation[7]);
  // All four even guesses tie; none ranks above another.
  EXPECT_EQ(r.rank_of(r.best_guess), 0u);
  const std::size_t ghost_rank = r.rank_of(r.best_guess ^ 6u);
  EXPECT_EQ(ghost_rank, r.rank_of(r.best_guess));
}

// ---- CPA measurements-to-disclosure ----------------------------------------

TEST(CpaMtd, StreamingScanMatchesRepeatedAttacks) {
  // Planted Hamming-weight leak: the streaming MTD scan must return
  // exactly what probing every prefix with a full attack returns.
  const std::uint8_t key = 0x5a;
  qu::Rng rng(11);
  qd::TraceSet ts;
  for (std::size_t i = 0; i < 300; ++i) {
    const std::uint8_t p = rng.byte();
    qp::PowerTrace t(0.0, 10.0, 24);
    for (std::size_t j = 0; j < 24; ++j) t[j] = rng.gaussian(0.0, 1.0);
    t[7] += 1.5 * static_cast<double>(__builtin_popcount(
                      qdi::crypto::aes_sbox(static_cast<std::uint8_t>(p ^ key))));
    ts.add(t, {p});
  }
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  const std::size_t streamed =
      qd::cpa_measurements_to_disclosure(ts, model, 256, key, 20, 20);
  std::size_t naive = 0;
  for (std::size_t n = 20; n <= ts.size(); n += 20) {
    const qd::CpaResult r = qd::cpa_attack(ts, model, 256, n);
    const bool ok = (r.best_guess == key) && r.best_rho > 0.0;
    if (ok && naive == 0) naive = n;
    if (!ok) naive = 0;
  }
  EXPECT_EQ(streamed, naive);
  EXPECT_GT(streamed, 0u);  // the planted leak is strong enough to recover
}

TEST(CpaMtd, ZeroStepIsDegenerateNotAnInfiniteLoop) {
  qu::Rng rng(12);
  const qd::TraceSet ts = random_traces(40, 8, rng);
  EXPECT_EQ(qd::cpa_measurements_to_disclosure(ts, qd::aes_sbox_hw_model(0),
                                               256, 0, 8, 0),
            0u);
  EXPECT_EQ(qd::measurements_to_disclosure(ts, qd::aes_sbox_selection(0, 0),
                                           256, 0, 8, 0),
            0u);
}

// ---- TraceSet geometry contract --------------------------------------------

TEST(TraceSetSoA, MismatchedGeometryThrows) {
  qd::TraceSet ts;
  ts.add(qp::PowerTrace(0.0, 1.0, 4), {1, 2}, {9});
  EXPECT_THROW(ts.add(qp::PowerTrace(0.0, 1.0, 5), {1, 2}, {9}),
               std::invalid_argument);  // sample count differs
  EXPECT_THROW(ts.add(qp::PowerTrace(0.0, 1.0, 4), {1}, {9}),
               std::invalid_argument);  // plaintext stride differs
  EXPECT_THROW(ts.add(qp::PowerTrace(0.0, 1.0, 4), {1, 2}),
               std::invalid_argument);  // ciphertext stride differs
  ts.add(qp::PowerTrace(0.0, 1.0, 4), {3, 4}, {8});
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.plaintext(1)[0], 3);
}

TEST(TraceSetSoA, SelfAppendThroughViewsIsSafe) {
  // Duplicating an existing acquisition hands add() spans into the
  // set's own storage; growth reallocation must not invalidate them
  // mid-copy (would be a use-after-free without the aliasing guard).
  qd::TraceSet ts;
  qp::PowerTrace t(0.0, 1.0, 3);
  t[0] = 1.5;
  t[2] = -2.5;
  ts.add(t, {7, 8}, {9});
  for (int i = 0; i < 20; ++i)
    ts.add(ts.trace(0), ts.plaintext(0), ts.ciphertext(0));
  ASSERT_EQ(ts.size(), 21u);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(ts.trace(i)[0], 1.5);
    EXPECT_DOUBLE_EQ(ts.trace(i)[2], -2.5);
    EXPECT_EQ(ts.plaintext(i)[1], 8);
    EXPECT_EQ(ts.ciphertext(i)[0], 9);
  }
}

// ---- chunked acquisition ---------------------------------------------------

TEST(AcquireChunked, SegmentsAreBitIdenticalToBatch) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x11);
  qc::SimTraceSource batch_src(inst.nl, inst.env, inst.stimulus, {});
  const qd::TraceSet batch = qc::WorkerPool(batch_src, 1).acquire(23, 77);

  qc::SimTraceSource chunk_src(inst.nl, inst.env, inst.stimulus, {});
  std::size_t seen = 0;
  qc::WorkerPool(chunk_src, /*threads=*/2)
      .acquire_chunked(23, 77, /*chunk=*/7,
                       [&](const qd::TraceSet& seg, std::size_t first) {
                         EXPECT_EQ(first, seen);
                         for (std::size_t k = 0; k < seg.size(); ++k) {
                           const std::size_t i = first + k;
                           ASSERT_EQ(seg.plaintext(k)[0],
                                     batch.plaintext(i)[0]);
                           for (std::size_t j = 0; j < seg.num_samples(); ++j)
                             ASSERT_EQ(seg.trace(k)[j], batch.trace(i)[j])
                                 << "trace " << i << " sample " << j;
                         }
                         seen += seg.size();
                       });
  EXPECT_EQ(seen, batch.size());
}

// ---- fused campaign == materialized campaign -------------------------------

namespace {

void expect_same_outcome(const qc::CampaignResult& fused,
                         const qc::CampaignResult& mat) {
  ASSERT_TRUE(fused.attack.has_value());
  ASSERT_TRUE(mat.attack.has_value());
  EXPECT_EQ(fused.attack->kind, mat.attack->kind);
  EXPECT_EQ(fused.attack->best_guess, mat.attack->best_guess);
  EXPECT_EQ(fused.attack->true_key_rank, mat.attack->true_key_rank);
  EXPECT_EQ(fused.attack->mtd, mat.attack->mtd);
  ASSERT_EQ(fused.attack->guess_scores.size(), mat.attack->guess_scores.size());
  for (std::size_t g = 0; g < mat.attack->guess_scores.size(); ++g)
    EXPECT_DOUBLE_EQ(fused.attack->guess_scores[g], mat.attack->guess_scores[g])
        << "guess " << g;
  EXPECT_DOUBLE_EQ(fused.attack->known_key_bias_peak,
                   mat.attack->known_key_bias_peak);
  ASSERT_EQ(fused.rank_trajectory.size(), mat.rank_trajectory.size());
  for (std::size_t i = 0; i < mat.rank_trajectory.size(); ++i) {
    EXPECT_EQ(fused.rank_trajectory[i].traces, mat.rank_trajectory[i].traces);
    EXPECT_EQ(fused.rank_trajectory[i].rank, mat.rank_trajectory[i].rank);
  }
  // Fused mode never materializes the trace set.
  EXPECT_EQ(fused.traces.size(), 0u);
  EXPECT_GT(mat.traces.size(), 0u);
}

}  // namespace

TEST(FusedCampaign, DpaMtdEqualsMaterializedOnDesSboxSlice) {
  qc::Dpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 40;
  cfg.mtd_step = 40;
  const auto run = [&](bool fuse) {
    qc::Campaign c;
    c.target(qc::des_sbox_slice())
        .key(0x2b)
        .seed(31337)
        .traces(240)
        .threads(2)
        .prepare([](qdi::netlist::Netlist& nl) {
          for (qdi::netlist::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
            const qdi::netlist::Channel& c2 = nl.channel(ch);
            if (c2.name.find("sbox/out") != std::string::npos)
              nl.net(c2.rails[1]).cap_ff *= 1.8;
          }
        })
        .attack(cfg)
        .rank_trajectory(60);
    if (fuse) c.fused(64);  // chunk deliberately misaligned with the grids
    return c.run();
  };
  expect_same_outcome(run(true), run(false));
}

TEST(FusedCampaign, CpaMtdEqualsMaterializedOnAesByteSlice) {
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 30;
  cfg.mtd_step = 30;
  const auto run = [&](bool fuse) {
    qc::Campaign c;
    c.target(qc::aes_byte_slice())
        .key(0x66)
        .seed(5)
        .traces(120)
        .prepare([](qdi::netlist::Netlist& nl) {
          for (qdi::netlist::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
            const qdi::netlist::Channel& c2 = nl.channel(ch);
            if (c2.name.find("sbox/out") != std::string::npos ||
                c2.name.find("hb/q_q") != std::string::npos)
              nl.net(c2.rails[1]).cap_ff *= 2.0;
          }
        })
        .attack(cfg)
        .rank_trajectory(50);
    if (fuse) c.fused(32);
    return c.run();
  };
  expect_same_outcome(run(true), run(false));
}

TEST(FusedCampaign, RequiresAnAttack) {
  EXPECT_THROW(
      qc::Campaign().target(qc::des_sbox_slice()).traces(8).fused().run(),
      std::invalid_argument);
}

TEST(FusedCampaign, ZeroChunkStaysFused) {
  // fused(0) must not silently fall back to materializing the traces.
  const qc::CampaignResult r = qc::Campaign()
                                   .target(qc::des_sbox_slice())
                                   .key(0x15)
                                   .traces(6)
                                   .fused(0)
                                   .attack(qc::Cpa{})
                                   .run();
  EXPECT_EQ(r.traces.size(), 0u);
  ASSERT_TRUE(r.attack.has_value());
}

TEST(FusedCampaign, ZeroMtdStepIsRejectedUpFront) {
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_step = 0;
  EXPECT_THROW(qc::Campaign()
                   .target(qc::des_sbox_slice())
                   .traces(8)
                   .attack(cfg)
                   .run(),
               std::invalid_argument);
  qc::Dpa dcfg;
  dcfg.compute_mtd = true;
  dcfg.mtd_step = 0;
  EXPECT_THROW(qc::Campaign()
                   .target(qc::des_sbox_slice())
                   .traces(8)
                   .attack(dcfg)
                   .run(),
               std::invalid_argument);
}

// ---- O(1) memory -----------------------------------------------------------

#ifdef __linux__

namespace {

/// Synthetic oscilloscope: procedurally generated leaky traces, fast
/// enough to push 100k traces through a fused campaign in a test.
class SyntheticSource final : public qc::TraceSource {
 public:
  void acquire_into(const qc::TraceRequest& req,
                    qc::AcquiredTrace& out) override {
    qu::Rng rng = qu::split_stream(req.seed, req.index);
    const std::uint8_t p = rng.byte();
    out.trace.reset(0.0, 10.0, 128);
    for (std::size_t j = 0; j < 128; ++j)
      out.trace[j] = rng.gaussian(0.0, 1.0);
    out.trace[31] += static_cast<double>(
        __builtin_popcount(qdi::crypto::aes_sbox(static_cast<std::uint8_t>(p ^ 0x3c))));
    out.plaintext.assign(1, p);
    out.ciphertext.clear();
    out.transitions = 0;
    out.glitches = 0;
  }
  std::unique_ptr<qc::TraceSource> clone() const override {
    return std::make_unique<SyntheticSource>();
  }
  std::string name() const override { return "synthetic"; }
};

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

qc::CampaignResult fused_synthetic(std::size_t traces) {
  return qc::Campaign()
      .target(qc::aes_byte_slice())
      .key(0x3c)
      .traces(traces)
      .fused(1024)
      .source([](const qc::TargetInstance&, const qc::SimTraceSourceOptions&) {
        return std::make_unique<SyntheticSource>();
      })
      .attack(qc::Cpa{})
      .run();
}

}  // namespace

#if defined(__SANITIZE_ADDRESS__)
#define QDI_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QDI_ASAN_ACTIVE 1
#endif
#endif

TEST(FusedCampaign, PeakRssIndependentOfTraceCount) {
#ifdef QDI_ASAN_ACTIVE
  // ASan's quarantine keeps freed per-trace blocks resident, so peak RSS
  // tracks total allocation volume, not the live set this test bounds.
  GTEST_SKIP() << "peak-RSS bound is meaningless under AddressSanitizer";
#endif
  // Warm up allocator + accumulators at 10k traces, then run 100k. A
  // materialized 100k×128-sample TraceSet alone would add ~100 MB; the
  // fused path must stay within a small constant of the 10k run.
  const qc::CampaignResult small = fused_synthetic(10'000);
  ASSERT_EQ(small.attack->best_guess, 0x3cu);
  const long rss_after_small = peak_rss_kb();

  const qc::CampaignResult big = fused_synthetic(100'000);
  ASSERT_EQ(big.attack->best_guess, 0x3cu);
  const long rss_after_big = peak_rss_kb();

  EXPECT_LT(rss_after_big - rss_after_small, 32 * 1024)
      << "fused campaign peak RSS grew with the trace count";
}

#endif  // __linux__
