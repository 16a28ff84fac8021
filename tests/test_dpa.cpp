#include <gtest/gtest.h>

#include "qdi/crypto/aes.hpp"
#include "qdi/crypto/des.hpp"
#include "qdi/dpa/dpa.hpp"
#include "qdi/util/rng.hpp"

namespace qd = qdi::dpa;
namespace qc = qdi::crypto;
namespace qu = qdi::util;
namespace qp = qdi::power;

namespace {

/// Synthetic trace set: trace[i] leaks `amp * bit(SBOX(p_i ^ key), bit)`
/// at sample `leak_at`, plus Gaussian noise.
qd::TraceSet synthetic_sbox_leak(std::size_t n, std::uint8_t key, int bit,
                                 double amp, double noise, std::uint64_t seed,
                                 std::size_t samples = 64,
                                 std::size_t leak_at = 20) {
  qu::Rng rng(seed);
  qd::TraceSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t p = rng.byte();
    qp::PowerTrace t(0.0, 10.0, samples);
    for (std::size_t j = 0; j < samples; ++j) t[j] = rng.gaussian(0.0, noise);
    const int d = (qc::aes_sbox(static_cast<std::uint8_t>(p ^ key)) >> bit) & 1;
    t[leak_at] += amp * d;
    ts.add(std::move(t), {p});
  }
  return ts;
}

}  // namespace

TEST(TraceSet, StoresAndTruncates) {
  qd::TraceSet ts;
  qp::PowerTrace t(0.0, 1.0, 4);
  ts.add(t, {1}, {2});
  ts.add(t, {3}, {4});
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.num_samples(), 4u);
  EXPECT_EQ(ts.plaintext(1)[0], 3);
  EXPECT_EQ(ts.ciphertext(0)[0], 2);
  ts.truncate(1);
  EXPECT_EQ(ts.size(), 1u);
  ts.truncate(10);  // no-op
  EXPECT_EQ(ts.size(), 1u);
}

TEST(Selection, AesXorBitExtraction) {
  const auto d = qd::aes_xor_selection(0, 3);
  const std::vector<std::uint8_t> pt{0b00001000};
  EXPECT_EQ(d(pt, 0x00), 1);
  EXPECT_EQ(d(pt, 0x08), 0);  // guess flips the bit
}

TEST(Selection, AesSboxMatchesReference) {
  const auto d = qd::aes_sbox_selection(0, 0);
  for (unsigned p = 0; p < 256; p += 17) {
    const std::vector<std::uint8_t> pt{static_cast<std::uint8_t>(p)};
    for (unsigned g : {0u, 0x42u, 0xffu})
      EXPECT_EQ(d(pt, g),
                (qc::aes_sbox(static_cast<std::uint8_t>(p ^ g)) >> 0) & 1);
  }
}

TEST(Selection, DesSboxMatchesReference) {
  const auto d = qd::des_sbox_selection(0, 2);
  for (unsigned p = 0; p < 64; ++p) {
    const std::vector<std::uint8_t> pt{static_cast<std::uint8_t>(p)};
    EXPECT_EQ(d(pt, 0x15),
              (qdi::crypto::des_sbox(0, static_cast<std::uint8_t>(p ^ 0x15)) >> 2) & 1);
  }
}

TEST(DpaBias, RecoversPlantedLeakAmplitude) {
  const std::uint8_t key = 0x6b;
  const auto ts = synthetic_sbox_leak(4000, key, 0, 5.0, 0.5, 42);
  const auto d = qd::aes_sbox_selection(0, 0);
  const qd::BiasResult b = qd::dpa_bias(ts, d, key);
  EXPECT_EQ(b.peak_index, 20u);
  EXPECT_NEAR(b.peak, 5.0, 0.3);  // |A0 - A1| = amp
  EXPECT_GT(b.n0, 1500u);
  EXPECT_GT(b.n1, 1500u);
}

TEST(DpaBias, WrongGuessShowsNoPeak) {
  const std::uint8_t key = 0x6b;
  const auto ts = synthetic_sbox_leak(4000, key, 0, 5.0, 0.5, 43);
  const auto d = qd::aes_sbox_selection(0, 0);
  const qd::BiasResult wrong = qd::dpa_bias(ts, d, key ^ 0x91);
  EXPECT_LT(wrong.peak, 1.0);
}

TEST(DpaBias, PrefixLimitsTraces) {
  const auto ts = synthetic_sbox_leak(1000, 0x11, 0, 5.0, 0.1, 44);
  const auto d = qd::aes_sbox_selection(0, 0);
  const qd::BiasResult b = qd::dpa_bias(ts, d, 0x11, 100);
  EXPECT_EQ(b.n0 + b.n1, 100u);
}

TEST(DpaBias, DegenerateSplitIsHandled) {
  // A selection that always returns 0 must not crash and yields no bias.
  qd::TraceSet ts;
  qp::PowerTrace t(0.0, 1.0, 8);
  ts.add(t, {0});
  const qd::SelectionFn d =
      qd::SelectionFn::byte_indexed(0, [](std::uint8_t, unsigned) { return 0; });
  const qd::BiasResult b = qd::dpa_bias(ts, d, 0);
  EXPECT_EQ(b.n1, 0u);
  EXPECT_DOUBLE_EQ(b.peak, 0.0);
}

TEST(RecoverKey, FindsPlantedKey) {
  const std::uint8_t key = 0xc3;
  const auto ts = synthetic_sbox_leak(3000, key, 0, 4.0, 1.0, 45);
  const auto d = qd::aes_sbox_selection(0, 0);
  const qd::KeyRecoveryResult r = qd::recover_key(ts, d, 256);
  EXPECT_EQ(r.best_guess, key);
  EXPECT_EQ(r.rank_of(key), 0u);
  EXPECT_GT(r.margin(), 1.5);
}

TEST(RecoverKey, MultibitSharpensMargin) {
  const std::uint8_t key = 0x3e;
  // Leak on all 8 S-Box output bits at different samples.
  qu::Rng rng(46);
  qd::TraceSet ts;
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::uint8_t p = rng.byte();
    qp::PowerTrace t(0.0, 10.0, 64);
    for (std::size_t j = 0; j < 64; ++j) t[j] = rng.gaussian(0.0, 1.0);
    const std::uint8_t s = qc::aes_sbox(static_cast<std::uint8_t>(p ^ key));
    for (int bit = 0; bit < 8; ++bit)
      t[static_cast<std::size_t>(10 + 3 * bit)] += 2.0 * ((s >> bit) & 1);
    ts.add(std::move(t), {p});
  }
  std::vector<qd::SelectionFn> bits;
  for (int b = 0; b < 8; ++b) bits.push_back(qd::aes_sbox_selection(0, b));
  const qd::KeyRecoveryResult multi = qd::recover_key_multibit(ts, bits, 256);
  const qd::KeyRecoveryResult single =
      qd::recover_key(ts, qd::aes_sbox_selection(0, 0), 256);
  EXPECT_EQ(multi.best_guess, key);
  EXPECT_GE(multi.margin(), single.margin() * 0.9);
}

TEST(RecoverKey, XorSelectionHasGhostPeaks) {
  // Structural property of the paper's AES XOR D-function: a single-bit
  // XOR target cannot distinguish key guesses that share the targeted
  // bit — the bias magnitude is identical (only the sign flips). This is
  // why the end-to-end attack benches target the S-Box output.
  const std::uint8_t key = 0x55;
  qu::Rng rng(47);
  qd::TraceSet ts;
  for (std::size_t i = 0; i < 1500; ++i) {
    const std::uint8_t p = rng.byte();
    qp::PowerTrace t(0.0, 10.0, 32);
    t[5] = 3.0 * ((p ^ key) & 1);  // leak of xor bit 0, no noise
    ts.add(std::move(t), {p});
  }
  const auto d = qd::aes_xor_selection(0, 0);
  const qd::BiasResult right = qd::dpa_bias(ts, d, key);
  const qd::BiasResult ghost = qd::dpa_bias(ts, d, key ^ 0xfe);  // same bit 0
  const qd::BiasResult flipped = qd::dpa_bias(ts, d, key ^ 0x01);
  EXPECT_NEAR(right.peak, ghost.peak, 1e-9);
  EXPECT_NEAR(right.peak, flipped.peak, 1e-9);
  EXPECT_LT(right.bias[5] * flipped.bias[5], 0.0);  // sign flip
}

TEST(Mtd, DecreasesWithLeakAmplitude) {
  const std::uint8_t key = 0x7a;
  const auto d = qd::aes_sbox_selection(0, 0);
  const auto weak = synthetic_sbox_leak(3000, key, 0, 1.0, 2.0, 48);
  const auto strong = synthetic_sbox_leak(3000, key, 0, 8.0, 2.0, 48);
  const std::size_t mtd_weak =
      qd::measurements_to_disclosure(weak, d, 256, key, 32, 32);
  const std::size_t mtd_strong =
      qd::measurements_to_disclosure(strong, d, 256, key, 32, 32);
  ASSERT_GT(mtd_strong, 0u);
  ASSERT_GT(mtd_weak, 0u);
  EXPECT_LE(mtd_strong, mtd_weak);
}

TEST(DpaBias, SampleWindowRestrictsPeakSearch) {
  const std::uint8_t key = 0x2f;
  const auto ts = synthetic_sbox_leak(1500, key, 0, 5.0, 0.3, 50);  // leak at 20
  const auto d = qd::aes_sbox_selection(0, 0);
  // Window containing the leak: full peak at index 20.
  const qd::BiasResult in_window = qd::dpa_bias(ts, d, key, 0, {10, 30});
  EXPECT_EQ(in_window.peak_index, 20u);
  EXPECT_GT(in_window.peak, 4.0);
  // Window excluding it: only the noise floor remains.
  const qd::BiasResult out_window = qd::dpa_bias(ts, d, key, 0, {30, 0});
  EXPECT_LT(out_window.peak, 0.5);
  EXPECT_GE(out_window.peak_index, 30u);
  // The bias vector itself is always full-length.
  EXPECT_EQ(out_window.bias.size(), ts.num_samples());
}

TEST(RecoverKey, WindowedRecoveryMatchesUnwindowed) {
  const std::uint8_t key = 0x77;
  const auto ts = synthetic_sbox_leak(2000, key, 0, 4.0, 1.0, 51);
  const auto d = qd::aes_sbox_selection(0, 0);
  const qd::KeyRecoveryResult full = qd::recover_key(ts, d, 256);
  const qd::KeyRecoveryResult windowed =
      qd::recover_key(ts, d, 256, 0, {15, 25});
  EXPECT_EQ(full.best_guess, key);
  EXPECT_EQ(windowed.best_guess, key);
  // Excluding the off-leak samples can only help the margin.
  EXPECT_GE(windowed.margin(), full.margin() * 0.99);
}

TEST(Mtd, ZeroWhenNoLeak) {
  const auto ts = synthetic_sbox_leak(500, 0x10, 0, 0.0, 1.0, 49);
  const auto d = qd::aes_sbox_selection(0, 0);
  EXPECT_EQ(qd::measurements_to_disclosure(ts, d, 256, 0x10, 64, 64), 0u);
}
