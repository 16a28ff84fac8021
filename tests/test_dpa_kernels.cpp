// SIMD analysis-kernel dispatch and fused-campaign thread invariance.
//
//  * the AVX2 arm (when the host supports it) is fuzzed against the
//    portable arm over awkward geometries — odd sample counts,
//    vector-width±1 tails, 1/5/256 guesses, one-row and co-prime
//    add_prefix() chunks, reads mid-stream — and must leave
//    BIT-identical accumulator state and emit bit-identical
//    finalize()/correlation_trace()/recover()/bias() results, which
//    pins the read-side kernels (cpa_rank_update, masked_sum,
//    corr_scan) as well as the ingest ones (shift_span and the span's
//    row adds; the determinism contract of qdi/dpa/kernels.hpp);
//  * the cached per-sample variance scan is invalidated by
//    ingest/merge/restore (a stale cache would poison every prefix
//    probe after the first);
//  * a fused campaign (partial final chunk, rank and MTD probes) is
//    bit-identical at 1, 2 and 3 acquisition threads: workers only
//    acquire, and ingest stays index-ordered on the calling thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "qdi/dpa/kernels.hpp"
#include "qdi/qdi.hpp"
#include "qdi/util/cpu.hpp"

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
namespace qk = qdi::dpa::kernels;
namespace qp = qdi::power;
namespace qu = qdi::util;

namespace {

qd::TraceSet random_traces(std::size_t n, std::size_t m, qu::Rng& rng) {
  qd::TraceSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    qp::PowerTrace t(0.0, 10.0, m);
    for (std::size_t j = 0; j < m; ++j) t[j] = rng.gaussian(1.0, 2.0);
    ts.add(t, {rng.byte(), rng.byte()});
  }
  return ts;
}

/// Feed `ts` through `acc` in deliberately awkward chunkings: one-row
/// add_prefix() calls at the front, then chunks of co-prime widths.
/// `probe` runs after every third chunk, so reads fold pending classes.
template <typename Acc, typename Probe>
void feed_awkward(Acc& acc, const qd::TraceSet& ts, Probe probe) {
  std::size_t i = 0;
  for (; i < std::min<std::size_t>(3, ts.size()); ++i)
    acc.add_prefix(ts, i, i + 1);
  const std::size_t widths[] = {5, 1, 7, 13};
  std::size_t w = 0;
  while (i < ts.size()) {
    const std::size_t hi = std::min(ts.size(), i + widths[w % 4]);
    acc.add_prefix(ts, i, hi);
    i = hi;
    if (++w % 3 == 0) probe(acc);
  }
}

template <typename Acc>
void feed_awkward(Acc& acc, const qd::TraceSet& ts) {
  feed_awkward(acc, ts, [](const Acc&) {});
}

}  // namespace

// ---- arm-vs-arm bit identity -----------------------------------------------

TEST(KernelDispatch, ActiveArmHonorsForcePortable) {
  const qk::KernelTable& a = qk::active();
  ASSERT_NE(a.name, nullptr);
  if (qu::force_portable()) {
    EXPECT_STREQ(a.name, "portable");
    EXPECT_FALSE(qu::sha256_hw_accelerated());
  }
  // The AVX2 table exists exactly when the probe reports the arm.
  EXPECT_EQ(qk::table(qk::Kind::Avx2) != nullptr,
            qk::supported(qk::Kind::Avx2));
  EXPECT_NE(qk::table(qk::Kind::Portable), nullptr);
  EXPECT_TRUE(qk::supported(qk::Kind::Portable));
}

TEST(KernelArms, CpaStateBitIdenticalAcrossArms) {
  const qk::KernelTable* avx2 = qk::table(qk::Kind::Avx2);
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 arm on this build/CPU";
  qu::Rng rng(0x51u);
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);
  for (const std::size_t m : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{17},
                              std::size_t{31}, std::size_t{64},
                              std::size_t{129}}) {
    for (const unsigned guesses : {1u, 5u, 256u}) {
      const std::size_t n = 24 + rng.below(16);
      const qd::TraceSet ts = random_traces(n, m, rng);
      // Both arms read at the same points: the mid-stream reads and the
      // folds they trigger must match bit for bit too.
      std::vector<std::vector<double>> ref_probes, probes;
      qd::OnlineCpa ref(model, guesses);
      ref.set_kernels(*qk::table(qk::Kind::Portable));
      feed_awkward(ref, ts, [&](const qd::OnlineCpa& a) {
        ref_probes.push_back(a.finalize().correlation);
      });
      qd::OnlineCpa acc(model, guesses);
      acc.set_kernels(*avx2);
      feed_awkward(acc, ts, [&](const qd::OnlineCpa& a) {
        probes.push_back(a.finalize().correlation);
      });
      // The whole running-sum state, byte for byte: no tolerance.
      EXPECT_EQ(acc.serialize_state(), ref.serialize_state())
          << "m=" << m << " guesses=" << guesses;
      EXPECT_EQ(probes, ref_probes) << "m=" << m << " guesses=" << guesses;
      const qd::CpaResult ref_fin = ref.finalize(1, m > 2 ? m - 1 : m);
      const qd::CpaResult fin = acc.finalize(1, m > 2 ? m - 1 : m);
      EXPECT_EQ(fin.best_guess, ref_fin.best_guess);
      EXPECT_EQ(fin.best_sample, ref_fin.best_sample);
      for (unsigned g = 0; g < guesses; ++g)
        EXPECT_EQ(fin.correlation[g], ref_fin.correlation[g]) << "g=" << g;
      const std::vector<double> ref_rho = ref.correlation_trace(0);
      const std::vector<double> rho = acc.correlation_trace(0);
      for (std::size_t j = 0; j < m; ++j) EXPECT_EQ(rho[j], ref_rho[j]);
    }
  }
}

TEST(KernelArms, DpaStateBitIdenticalAcrossArms) {
  const qk::KernelTable* avx2 = qk::table(qk::Kind::Avx2);
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 arm on this build/CPU";
  qu::Rng rng(0x52u);
  // Two bits on byte 0 share a class table; the third reads byte 1.
  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0),
                                             qd::aes_sbox_selection(0, 3),
                                             qd::aes_sbox_selection(1, 5)};
  for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{9}, std::size_t{33},
                              std::size_t{130}}) {
    for (const unsigned guesses : {1u, 5u, 256u}) {
      const std::size_t n = 24 + rng.below(16);
      const qd::TraceSet ts = random_traces(n, m, rng);
      std::vector<std::vector<double>> ref_probes, probes;
      qd::OnlineDpa ref(bits, guesses);
      ref.set_kernels(*qk::table(qk::Kind::Portable));
      feed_awkward(ref, ts, [&](const qd::OnlineDpa& a) {
        ref_probes.push_back(a.recover().guess_peak);
      });
      qd::OnlineDpa acc(bits, guesses);
      acc.set_kernels(*avx2);
      feed_awkward(acc, ts, [&](const qd::OnlineDpa& a) {
        probes.push_back(a.recover().guess_peak);
      });
      EXPECT_EQ(acc.serialize_state(), ref.serialize_state())
          << "m=" << m << " guesses=" << guesses;
      EXPECT_EQ(probes, ref_probes) << "m=" << m << " guesses=" << guesses;
      const qd::KeyRecoveryResult ref_rec = ref.recover();
      const qd::KeyRecoveryResult rec = acc.recover();
      EXPECT_EQ(rec.best_guess, ref_rec.best_guess);
      for (unsigned g = 0; g < guesses; ++g)
        EXPECT_EQ(rec.guess_peak[g], ref_rec.guess_peak[g]);
      EXPECT_EQ(acc.recover_single(1).guess_peak,
                ref.recover_single(1).guess_peak);
      for (unsigned g = 0; g < guesses; ++g) {
        for (std::size_t b = 0; b < bits.size(); ++b) {
          const qd::BiasResult rb = ref.bias(g, b);
          const qd::BiasResult ab = acc.bias(g, b);
          EXPECT_EQ(ab.n1, rb.n1);
          EXPECT_EQ(ab.bias, rb.bias) << "g=" << g << " bit=" << b;
          EXPECT_EQ(ab.peak, rb.peak);
          EXPECT_EQ(ab.integrated, rb.integrated);
        }
      }
    }
  }
}

TEST(KernelArms, ReadKernelsBitIdenticalOnLongRowLists) {
  // The accumulators fold at most 16 class rows per kernel call; the
  // kernels accept any row count, so pin longer lists (and hypothesis
  // rows with zeros, which both arms must skip alike) directly.
  const qk::KernelTable* avx2 = qk::table(qk::Kind::Avx2);
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 arm on this build/CPU";
  const qk::KernelTable& ref = *qk::table(qk::Kind::Portable);
  qu::Rng rng(0x55u);
  for (const std::size_t m : {std::size_t{3}, std::size_t{21},
                              std::size_t{37}}) {
    for (const std::size_t cnt : {std::size_t{1}, std::size_t{33},
                                  std::size_t{70}}) {
      const unsigned guesses = 5;
      std::vector<std::vector<double>> data(cnt, std::vector<double>(m));
      std::vector<std::vector<double>> hyp(cnt, std::vector<double>(guesses));
      std::vector<const double*> rows, hyps;
      std::vector<double> mask(cnt);
      for (std::size_t c = 0; c < cnt; ++c) {
        for (double& v : data[c]) v = rng.gaussian(0.0, 3.0);
        for (double& h : hyp[c]) h = static_cast<double>(rng.below(3));
        mask[c] = static_cast<double>(rng.below(2));
        rows.push_back(data[c].data());
        hyps.push_back(hyp[c].data());
      }
      // Guess rows strided wider than the updated samples, as a read
      // over a span narrower than the trace lays them out.
      const std::size_t ld = m + 3;
      std::vector<double> a(guesses * ld, 0.5), b = a;
      ref.cpa_rank_update(a.data(), rows.data(), hyps.data(), cnt, guesses, m,
                          ld);
      avx2->cpa_rank_update(b.data(), rows.data(), hyps.data(), cnt, guesses,
                            m, ld);
      EXPECT_EQ(a, b) << "cpa_rank_update m=" << m << " cnt=" << cnt;
      std::vector<double> c(m, -1.25), d = c;
      ref.masked_sum(c.data(), rows.data(), mask.data(), cnt, m);
      avx2->masked_sum(d.data(), rows.data(), mask.data(), cnt, m);
      EXPECT_EQ(c, d) << "masked_sum m=" << m << " cnt=" << cnt;
    }
  }
}

TEST(KernelArms, ShiftSpanBitIdenticalOnSparseRows) {
  // The ingest shift: the same differences and the same widened span in
  // both arms, for nonzero runs at every offset around the vector
  // width, starting spans empty or not, and a NaN (which counts as
  // nonzero) — including -0.0 - +0.0, which is zero and widens nothing.
  const qk::KernelTable* avx2 = qk::table(qk::Kind::Avx2);
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 arm on this build/CPU";
  const qk::KernelTable& ref = *qk::table(qk::Kind::Portable);
  qu::Rng rng(0x56u);
  for (const std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{8}, std::size_t{13},
                              std::size_t{37}}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> base(m), src(m);
      for (std::size_t j = 0; j < m; ++j) base[j] = rng.gaussian(0.0, 1.0);
      src = base;
      const std::size_t flips = m == 0 ? 0 : rng.below(3);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t j = rng.below(m);
        const int kind = static_cast<int>(rng.below(4));
        src[j] = kind == 0   ? std::nan("")
                 : kind == 1 ? base[j] + 1.0
                 : kind == 2 ? -0.0
                             : base[j];
        if (kind == 2) base[j] = 0.0;
      }
      std::size_t lo0 = 0, hi0 = 0;
      if (m > 0 && rng.below(2) == 0) {
        lo0 = rng.below(m);
        hi0 = lo0 + rng.below(m - lo0 + 1);
      }
      std::vector<double> a(m, 7.0), b(m, 7.0);
      std::size_t alo = lo0, ahi = hi0, blo = lo0, bhi = hi0;
      ref.shift_span(a.data(), src.data(), base.data(), m, &alo, &ahi);
      avx2->shift_span(b.data(), src.data(), base.data(), m, &blo, &bhi);
      ASSERT_TRUE(m == 0 ||
                  std::memcmp(a.data(), b.data(), m * sizeof(double)) == 0)
          << "m=" << m;
      ASSERT_EQ(alo, blo) << "m=" << m;
      ASSERT_EQ(ahi, bhi) << "m=" << m;
      // The span is the hull of the start span and the nonzero
      // differences; dst holds the differences over it and is left
      // untouched elsewhere.
      std::size_t lo = lo0, hi = hi0;
      for (std::size_t j = 0; j < m; ++j) {
        const double d = src[j] - base[j];
        if (j >= alo && j < ahi) {
          EXPECT_EQ(std::memcmp(&a[j], &d, sizeof d), 0) << "j=" << j;
        } else {
          EXPECT_EQ(a[j], 7.0) << "j=" << j;
        }
        if (!(d != 0.0)) continue;
        if (lo == hi) {
          lo = j;
          hi = j + 1;
        } else {
          lo = std::min(lo, j);
          hi = std::max(hi, j + 1);
        }
      }
      EXPECT_EQ(alo, lo);
      EXPECT_EQ(ahi, hi);
    }
  }
}

// ---- variance-cache correctness --------------------------------------------

TEST(KernelArms, VarianceCacheInvalidatedByIngestMergeRestore) {
  qu::Rng rng(0x53u);
  const qd::TraceSet ts = random_traces(60, 19, rng);
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);

  // finalize – ingest – finalize must equal a fresh single-shot feed
  // (a stale variance cache from the first finalize would poison the
  // second). The state is bitwise equal; the second read folds the
  // classes touched since the first, so the results agree to rounding
  // (read-schedule contract, qdi/dpa/online.hpp).
  qd::OnlineCpa probed(model, 16);
  probed.add_prefix(ts, 0, 30);
  (void)probed.finalize();           // populates the cache at n=30
  probed.add_prefix(ts, 30, 60);     // must invalidate it
  qd::OnlineCpa fresh(model, 16);
  fresh.add_prefix(ts, 0, 60);
  EXPECT_EQ(probed.serialize_state(), fresh.serialize_state());
  const qd::CpaResult a = probed.finalize();
  const qd::CpaResult b = fresh.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_NEAR(a.correlation[g], b.correlation[g],
                1e-12 * std::fabs(b.correlation[g]))
        << "g=" << g;

  // Same rule through merge() ...
  qd::OnlineCpa left(model, 16), right(model, 16);
  left.add_prefix(ts, 0, 30);
  (void)left.finalize();
  right.add_prefix(ts, 30, 60);
  left.merge(right);
  const qd::CpaResult c = left.finalize();
  // merge() re-associates the sums (block totals instead of trace
  // order), so this leg is 1e-12, not bitwise.
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_NEAR(c.correlation[g], b.correlation[g], 1e-12) << "g=" << g;

  // ... and through restore_state().
  qd::OnlineCpa restored(model, 16);
  restored.add_prefix(ts, 0, 30);
  (void)restored.finalize();
  restored.restore_state(fresh.serialize_state());
  const qd::CpaResult d = restored.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_EQ(d.correlation[g], b.correlation[g]) << "g=" << g;
}

TEST(KernelArms, ResetDropsTracesKeepsGeometry) {
  qu::Rng rng(0x54u);
  const qd::TraceSet ts = random_traces(24, 11, rng);
  qd::OnlineCpa acc(qd::aes_sbox_hw_model(0), 8);
  acc.add_prefix(ts, 0, 12);
  acc.reset();
  EXPECT_EQ(acc.count(), 0u);
  acc.add_prefix(ts, 0, 24);
  qd::OnlineCpa fresh(qd::aes_sbox_hw_model(0), 8);
  fresh.add_prefix(ts, 0, 24);
  EXPECT_EQ(acc.serialize_state(), fresh.serialize_state());

  qd::OnlineDpa dacc({qd::aes_sbox_selection(0, 0)}, 8);
  dacc.add_prefix(ts, 0, 12);
  dacc.reset();
  EXPECT_EQ(dacc.count(), 0u);
  dacc.add_prefix(ts, 0, 24);
  qd::OnlineDpa dfresh({qd::aes_sbox_selection(0, 0)}, 8);
  dfresh.add_prefix(ts, 0, 24);
  EXPECT_EQ(dacc.serialize_state(), dfresh.serialize_state());
}

// ---- fused campaign thread invariance --------------------------------------

namespace {

/// Leakage amplifier: skew one rail of the sbox output channels so the
/// CPA signal is real and the rank trajectory and MTD scan have an
/// actual key to find.
void skew_sbox_rails(qdi::netlist::Netlist& nl) {
  for (qdi::netlist::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
    const qdi::netlist::Channel& c = nl.channel(ch);
    if (c.name.find("sbox/out") != std::string::npos ||
        c.name.find("hb/q_q") != std::string::npos)
      nl.net(c.rails[1]).cap_ff *= 2.0;
  }
}

qc::CampaignResult run_fused_campaign(unsigned threads) {
  qc::Cpa cfg;
  cfg.compute_mtd = true;
  cfg.mtd_start = 30;
  cfg.mtd_step = 30;
  return qc::Campaign()
      .target(qc::aes_byte_slice())
      .key(0x3c)
      .seed(77)
      .traces(130)  // NOT a multiple of the chunk: partial final chunk
      .threads(threads)
      .prepare(skew_sbox_rails)
      .attack(cfg)
      .rank_trajectory(50)
      .fused(64)
      .run();
}

void expect_bitwise_equal(const qc::CampaignResult& a,
                          const qc::CampaignResult& b) {
  ASSERT_TRUE(a.attack && b.attack);
  EXPECT_EQ(a.attack->best_guess, b.attack->best_guess);
  EXPECT_EQ(a.attack->best_score, b.attack->best_score);
  EXPECT_EQ(a.attack->second_score, b.attack->second_score);
  EXPECT_EQ(a.attack->true_key_rank, b.attack->true_key_rank);
  EXPECT_EQ(a.attack->mtd, b.attack->mtd);
  ASSERT_EQ(a.attack->guess_scores.size(), b.attack->guess_scores.size());
  for (std::size_t g = 0; g < a.attack->guess_scores.size(); ++g)
    EXPECT_EQ(a.attack->guess_scores[g], b.attack->guess_scores[g])
        << "g=" << g;
  ASSERT_EQ(a.rank_trajectory.size(), b.rank_trajectory.size());
  for (std::size_t i = 0; i < a.rank_trajectory.size(); ++i) {
    EXPECT_EQ(a.rank_trajectory[i].traces, b.rank_trajectory[i].traces);
    EXPECT_EQ(a.rank_trajectory[i].rank, b.rank_trajectory[i].rank);
  }
}

}  // namespace

TEST(FusedCampaign, ResultsBitIdenticalAcrossThreadCounts) {
  const qc::CampaignResult one = run_fused_campaign(1);
  const qc::CampaignResult two = run_fused_campaign(2);
  const qc::CampaignResult three = run_fused_campaign(3);
  expect_bitwise_equal(one, two);
  expect_bitwise_equal(one, three);
}
