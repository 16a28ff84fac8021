// Merge and state-snapshot tests for the streaming accumulators.
//
// merge() exists so N workers can each stream a disjoint shard of the
// acquisitions and fold their partial sums at the end: every statistic
// in OnlineCpa/OnlineDpa is an additive running sum, so an N-way
// split + merge must agree with one single-pass accumulator over the
// whole stream up to floating-point re-association (1e-12), and the
// integer statistics (counts, DPA partition sizes) must agree exactly.
// serialize_state()/restore_state() round-trips are bit-exact, and the
// class-table state a shard commits does not depend on thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "qdi/qdi.hpp"

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
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

/// Split [0, n) into `ways` contiguous shards with randomized cut
/// points (some shards may be empty — merging an empty accumulator must
/// be a no-op).
std::vector<std::size_t> random_cuts(std::size_t n, std::size_t ways,
                                     qu::Rng& rng) {
  std::vector<std::size_t> cuts{0};
  for (std::size_t k = 1; k < ways; ++k) cuts.push_back(rng.below(n + 1));
  cuts.push_back(n);
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

}  // namespace

TEST(OnlineMerge, CpaNWaySplitMergeMatchesSinglePass) {
  qu::Rng rng(0x51);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8 + rng.below(120);
    const std::size_t m = 1 + rng.below(24);
    const unsigned guesses = 2 + static_cast<unsigned>(rng.below(15));
    const std::size_t ways = 2 + rng.below(5);
    const qd::TraceSet ts = random_traces(n, m, rng);
    const qd::LeakageModel model = qd::aes_xor_hw_model(0);

    qd::OnlineCpa whole(model, guesses);
    whole.add_prefix(ts, 0, n);

    const std::vector<std::size_t> cuts = random_cuts(n, ways, rng);
    qd::OnlineCpa merged(model, guesses);
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      qd::OnlineCpa shard(model, guesses);
      shard.add_prefix(ts, cuts[k], cuts[k + 1]);
      merged.merge(shard);
    }
    ASSERT_EQ(merged.count(), whole.count());

    const qd::CpaResult a = whole.finalize();
    const qd::CpaResult b = merged.finalize();
    ASSERT_EQ(a.correlation.size(), b.correlation.size());
    for (unsigned g = 0; g < guesses; ++g) {
      EXPECT_NEAR(a.correlation[g], b.correlation[g], 1e-12)
          << "trial " << trial << " guess " << g;
      const std::vector<double> ra = whole.correlation_trace(g);
      const std::vector<double> rb = merged.correlation_trace(g);
      for (std::size_t j = 0; j < ra.size(); ++j)
        EXPECT_NEAR(ra[j], rb[j], 1e-12) << "guess " << g << " sample " << j;
    }
  }
}

TEST(OnlineMerge, DpaNWaySplitMergeMatchesSinglePass) {
  qu::Rng rng(0x52);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8 + rng.below(120);
    const std::size_t m = 1 + rng.below(24);
    const unsigned guesses = 2 + static_cast<unsigned>(rng.below(15));
    const std::size_t ways = 2 + rng.below(5);
    const qd::TraceSet ts = random_traces(n, m, rng);
    const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0),
                                               qd::aes_sbox_selection(0, 5)};

    qd::OnlineDpa whole(bits, guesses);
    whole.add_prefix(ts, 0, n);

    const std::vector<std::size_t> cuts = random_cuts(n, ways, rng);
    qd::OnlineDpa merged(bits, guesses);
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      qd::OnlineDpa shard(bits, guesses);
      shard.add_prefix(ts, cuts[k], cuts[k + 1]);
      merged.merge(shard);
    }
    ASSERT_EQ(merged.count(), whole.count());

    for (unsigned g = 0; g < guesses; ++g) {
      for (std::size_t bit = 0; bit < bits.size(); ++bit) {
        const qd::BiasResult a = whole.bias(g, bit);
        const qd::BiasResult b = merged.bias(g, bit);
        // Partition sizes are integer counts: exact.
        EXPECT_EQ(a.n0, b.n0) << "guess " << g << " bit " << bit;
        EXPECT_EQ(a.n1, b.n1) << "guess " << g << " bit " << bit;
        ASSERT_EQ(a.bias.size(), b.bias.size());
        for (std::size_t j = 0; j < a.bias.size(); ++j)
          EXPECT_NEAR(a.bias[j], b.bias[j], 1e-12)
              << "guess " << g << " bit " << bit << " sample " << j;
      }
    }
    const qd::KeyRecoveryResult ra = whole.recover();
    const qd::KeyRecoveryResult rb = merged.recover();
    for (unsigned g = 0; g < guesses; ++g)
      EXPECT_NEAR(ra.guess_peak[g], rb.guess_peak[g], 1e-12);
  }
}

namespace {

/// Traces at a DC level of ~1000 with a planted HW leak at sample 6,
/// noise on samples [4, 12), and a side-specific constant `level` at
/// sample 20 (every trace of one side agrees there, so each side's own
/// span excludes it; the reference rows of two sides differ there).
void add_side(qd::TraceSet& ts, std::size_t n, double level,
              std::uint8_t key, qu::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t p = rng.byte();
    qp::PowerTrace t(0.0, 10.0, 28);
    for (std::size_t j = 0; j < 28; ++j)
      t[j] = 1000.0 + 0.25 * static_cast<double>(j);
    for (std::size_t j = 4; j < 12; ++j) t[j] += rng.gaussian(0.0, 1.0);
    t[6] += 1.5 * static_cast<double>(__builtin_popcount(
                      qdi::crypto::aes_sbox(static_cast<std::uint8_t>(p ^ key))));
    t[20] = level;
    ts.add(t, {p, rng.byte()});
  }
}

void expect_rel(const std::vector<double>& a, const std::vector<double>& b,
                double rel) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], rel * std::fabs(b[i])) << "index " << i;
}

}  // namespace

TEST(OnlineMerge, DifferingReferencesRebaseOntoThisSide) {
  // Two sides with different reference rows (their first traces): the
  // merge rebases the other side's sums onto this side's reference, and
  // the span becomes the hull of both spans and of the samples where
  // the references differ (sample 20, constant within each side). The
  // result matches one pass over the union to 1e-12, with the same
  // discrete outcome and the same span.
  const std::uint8_t key = 0x6b;
  qu::Rng rng(0x5b);
  qd::TraceSet ts;
  add_side(ts, 150, 3.0, key, rng);
  add_side(ts, 250, 5.5, key, rng);
  const qd::LeakageModel model = qd::aes_sbox_hw_model(0);

  qd::OnlineCpa whole(model, 256), left(model, 256), right(model, 256);
  whole.add_prefix(ts, 0, ts.size());
  left.add_prefix(ts, 0, 150);
  right.add_prefix(ts, 150, ts.size());
  EXPECT_EQ(left.span_lo(), 4u);
  EXPECT_EQ(left.span_hi(), 12u);
  left.merge(right);
  EXPECT_EQ(left.span_lo(), whole.span_lo());
  EXPECT_EQ(left.span_hi(), 21u);
  EXPECT_EQ(whole.span_hi(), 21u);
  const qd::CpaResult a = left.finalize();
  const qd::CpaResult b = whole.finalize();
  expect_rel(a.correlation, b.correlation, 1e-12);
  EXPECT_EQ(a.best_guess, key);
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_EQ(a.best_sample, b.best_sample);
  EXPECT_EQ(a.rank_of(key), b.rank_of(key));
  const std::vector<double> ra = left.correlation_trace(key);
  const std::vector<double> rb = whole.correlation_trace(key);
  for (std::size_t j = 0; j < ra.size(); ++j) {
    EXPECT_NEAR(ra[j], rb[j], 1e-12) << "sample " << j;
    if (j < 4 || j >= 21) EXPECT_EQ(ra[j], 0.0) << "sample " << j;
  }

  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0),
                                             qd::aes_sbox_selection(0, 4)};
  qd::OnlineDpa dwhole(bits, 256), dleft(bits, 256), dright(bits, 256);
  dwhole.add_prefix(ts, 0, ts.size());
  dleft.add_prefix(ts, 0, 150);
  dright.add_prefix(ts, 150, ts.size());
  dleft.merge(dright);
  EXPECT_EQ(dleft.span_lo(), dwhole.span_lo());
  EXPECT_EQ(dleft.span_hi(), dwhole.span_hi());
  const qd::KeyRecoveryResult da = dleft.recover();
  const qd::KeyRecoveryResult db = dwhole.recover();
  expect_rel(da.guess_peak, db.guess_peak, 1e-12);
  EXPECT_EQ(da.best_guess, key);
  EXPECT_EQ(da.best_guess, db.best_guess);
  EXPECT_EQ(da.rank_of(key), db.rank_of(key));

  // An empty side adopts the other's reference: its state is then the
  // other's, byte for byte.
  qd::OnlineCpa adopt(model, 256);
  adopt.merge(right);
  EXPECT_EQ(adopt.serialize_state(), right.serialize_state());
  qd::OnlineDpa dadopt(bits, 256);
  dadopt.merge(dright);
  EXPECT_EQ(dadopt.serialize_state(), dright.serialize_state());
}

TEST(OnlineMerge, MergeIntoEmptyAndFromEmpty) {
  qu::Rng rng(0x53);
  const qd::TraceSet ts = random_traces(40, 12, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  qd::OnlineCpa full(model, 16);
  full.add_prefix(ts, 0, 40);

  // empty.merge(full) adopts the geometry; full.merge(empty) is a no-op.
  qd::OnlineCpa empty(model, 16);
  empty.merge(full);
  const qd::CpaResult a = full.finalize();
  const qd::CpaResult b = empty.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.correlation[g], b.correlation[g]);

  qd::OnlineCpa noop(model, 16);
  full.merge(noop);
  EXPECT_EQ(full.count(), 40u);
  const qd::CpaResult c = full.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.correlation[g], c.correlation[g]);
}

TEST(OnlineMerge, MismatchedGeometryThrows) {
  qu::Rng rng(0x54);
  const qd::TraceSet ts = random_traces(10, 8, rng);
  const qd::TraceSet ts_wide = random_traces(10, 9, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  qd::OnlineCpa a(model, 16);
  a.add_prefix(ts, 0, 10);
  qd::OnlineCpa wrong_guesses(model, 8);
  wrong_guesses.add_prefix(ts, 0, 10);
  EXPECT_THROW(a.merge(wrong_guesses), std::invalid_argument);

  qd::OnlineCpa wrong_m(model, 16);
  wrong_m.add_prefix(ts_wide, 0, 10);
  EXPECT_THROW(a.merge(wrong_m), std::invalid_argument);

  qd::OnlineDpa d1({qd::aes_sbox_selection(0, 0)}, 16);
  d1.add_prefix(ts, 0, 10);
  qd::OnlineDpa two_bits(
      {qd::aes_sbox_selection(0, 0), qd::aes_sbox_selection(0, 1)}, 16);
  two_bits.add_prefix(ts, 0, 10);
  EXPECT_THROW(d1.merge(two_bits), std::invalid_argument);
}

TEST(OnlineMerge, CpaSnapshotRoundTripIsBitExact) {
  qu::Rng rng(0x55);
  const qd::TraceSet ts = random_traces(60, 16, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  qd::OnlineCpa acc(model, 16);
  acc.add_prefix(ts, 0, 35);
  const std::vector<std::uint8_t> snap = acc.serialize_state();

  qd::OnlineCpa restored(model, 16);
  restored.restore_state(snap);
  EXPECT_EQ(restored.count(), acc.count());

  // Both continue with the same tail: results stay bit-identical, which
  // is what lets a checkpointed campaign resume mid-stream.
  acc.add_prefix(ts, 35, 60);
  restored.add_prefix(ts, 35, 60);
  const qd::CpaResult a = acc.finalize();
  const qd::CpaResult b = restored.finalize();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.correlation[g], b.correlation[g]);
  EXPECT_EQ(a.best_guess, b.best_guess);
}

TEST(OnlineMerge, DpaSnapshotRoundTripIsBitExact) {
  qu::Rng rng(0x56);
  const qd::TraceSet ts = random_traces(60, 16, rng);
  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 3)};

  qd::OnlineDpa acc(bits, 16);
  acc.add_prefix(ts, 0, 35);
  const std::vector<std::uint8_t> snap = acc.serialize_state();

  qd::OnlineDpa restored(bits, 16);
  restored.restore_state(snap);
  acc.add_prefix(ts, 35, 60);
  restored.add_prefix(ts, 35, 60);
  const qd::KeyRecoveryResult a = acc.recover();
  const qd::KeyRecoveryResult b = restored.recover();
  for (unsigned g = 0; g < 16; ++g)
    EXPECT_DOUBLE_EQ(a.guess_peak[g], b.guess_peak[g]);
}

namespace {

/// Kind of the StateError a restore_state call throws (the call must
/// throw).
template <typename Acc>
qd::StateError::Kind restore_kind(Acc& acc,
                                  const std::vector<std::uint8_t>& bytes) {
  try {
    acc.restore_state(bytes);
  } catch (const qd::StateError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "restore_state accepted a malformed snapshot of "
                << bytes.size() << " bytes";
  return qd::StateError::Kind::Truncated;
}

}  // namespace

TEST(OnlineMerge, MalformedOrMismatchedSnapshotThrowsNamedErrors) {
  qu::Rng rng(0x57);
  const qd::TraceSet ts = random_traces(20, 8, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  qd::OnlineCpa acc(model, 16);
  acc.add_prefix(ts, 0, 20);
  std::vector<std::uint8_t> snap = acc.serialize_state();

  // Wrong receiver configuration.
  qd::OnlineCpa other_guesses(model, 8);
  EXPECT_EQ(restore_kind(other_guesses, snap), qd::StateError::Kind::Geometry);

  // Truncated and trailing-garbage payloads. StateError derives from
  // std::runtime_error, so generic catch sites still work.
  std::vector<std::uint8_t> cut(snap.begin(), snap.end() - 3);
  qd::OnlineCpa fresh(model, 16);
  EXPECT_EQ(restore_kind(fresh, cut), qd::StateError::Kind::Truncated);
  EXPECT_THROW(fresh.restore_state(cut), std::runtime_error);
  snap.push_back(0);
  EXPECT_EQ(restore_kind(fresh, snap), qd::StateError::Kind::Oversized);

  // A CPA snapshot fed to a DPA accumulator (magic mismatch).
  qd::OnlineDpa dpa({qd::aes_sbox_selection(0, 0)}, 16);
  const std::vector<std::uint8_t> cpa_snap = acc.serialize_state();
  EXPECT_EQ(restore_kind(dpa, cpa_snap), qd::StateError::Kind::BadMagic);
}

TEST(OnlineMerge, DpaRestoreRejectsClassCountsNotSummingToTraceCount) {
  // A well-framed 4-trace snapshot whose first class count is patched:
  // set sizes derived from the counts would no longer add up to n (and
  // bias() would report n0 = n - n1 wrapped around).
  // Layout: magic, guesses, bits, m, n, span lo, span hi (u64 each),
  // the reference row (u64 length + m doubles), sum_s over the span
  // (u64 length + hi - lo doubles), then the class table: counts (u64
  // length + one u64 per class) and sums.
  qu::Rng rng(0x59);
  const std::size_t m = 5;
  const qd::TraceSet ts = random_traces(4, m, rng);
  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0)};
  qd::OnlineDpa acc(bits, 4);
  acc.add_prefix(ts, 0, 4);
  const std::vector<std::uint8_t> snap = acc.serialize_state();
  const std::size_t w = acc.span_hi() - acc.span_lo();
  const std::size_t counts_at =
      7 * 8 + 8 + m * sizeof(double) + 8 + w * sizeof(double) + 8;
  ASSERT_LT(counts_at + 16, snap.size());
  ASSERT_LE(snap[counts_at], 4u);

  qd::OnlineDpa victim(bits, 4);
  victim.add_prefix(ts, 0, 2);
  const std::vector<std::uint8_t> before = victim.serialize_state();
  for (const int delta : {+1, +9, -1}) {
    std::vector<std::uint8_t> bad = snap;
    if (delta < 0 && bad[counts_at] == 0) bad[counts_at + 8] -= 1;  // class 1
    else bad[counts_at] = static_cast<std::uint8_t>(bad[counts_at] + delta);
    EXPECT_EQ(restore_kind(victim, bad), qd::StateError::Kind::Geometry)
        << "count delta " << delta;
    EXPECT_EQ(victim.serialize_state(), before);
  }

  // Counts moved between classes still sum to n: a legal snapshot.
  std::vector<std::uint8_t> moved = snap;
  if (moved[counts_at] > 0) {
    moved[counts_at] -= 1;
    moved[counts_at + 8] += 1;
  }
  victim.restore_state(moved);
  EXPECT_EQ(victim.count(), 4u);
}

TEST(OnlineMerge, ParentFormatSnapshotsThrowBadMagic) {
  // Snapshots of the all-guess-sums format carried the magics "qdpC" /
  // "qdpD"; the class-table format must reject them by name rather than
  // misread their fields.
  qu::Rng rng(0x5a);
  const qd::TraceSet ts = random_traces(6, 4, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);
  const auto with_magic = [](std::vector<std::uint8_t> snap,
                             std::uint64_t magic) {
    for (int i = 0; i < 8; ++i)
      snap[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(magic >> (8 * i));
    return snap;
  };
  qd::OnlineCpa cpa(model, 4);
  cpa.add_prefix(ts, 0, 6);
  qd::OnlineCpa cpa_victim(model, 4);
  EXPECT_EQ(restore_kind(cpa_victim, with_magic(cpa.serialize_state(),
                                                0x71647043)),  // "qdpC"
            qd::StateError::Kind::BadMagic);
  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0)};
  qd::OnlineDpa dpa(bits, 4);
  dpa.add_prefix(ts, 0, 6);
  qd::OnlineDpa dpa_victim(bits, 4);
  EXPECT_EQ(restore_kind(dpa_victim, with_magic(dpa.serialize_state(),
                                                0x71647044)),  // "qdpD"
            qd::StateError::Kind::BadMagic);
  // The unshifted full-width class tables were "qdC2" / "qdD2".
  EXPECT_EQ(restore_kind(cpa_victim, with_magic(cpa.serialize_state(),
                                                0x71644332)),  // "qdC2"
            qd::StateError::Kind::BadMagic);
  EXPECT_EQ(restore_kind(dpa_victim, with_magic(dpa.serialize_state(),
                                                0x71644432)),  // "qdD2"
            qd::StateError::Kind::BadMagic);
  EXPECT_EQ(cpa_victim.count(), 0u);
  EXPECT_EQ(dpa_victim.count(), 0u);
}

TEST(OnlineMerge, SnapshotSpanOutsideSamplesIsGeometry) {
  // The span fields sit after magic, guesses (DPA: and bits), m and n.
  // A span past m, or with lo > hi, is a Geometry error that leaves the
  // receiver untouched; so is a nonempty span over zero traces.
  qu::Rng rng(0x5c);
  const qd::TraceSet ts = random_traces(9, 6, rng);
  const auto patched = [](std::vector<std::uint8_t> snap, std::size_t at,
                          std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      snap[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    return snap;
  };
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);
  qd::OnlineCpa cpa(model, 4);
  cpa.add_prefix(ts, 0, 9);
  ASSERT_EQ(cpa.span_lo(), 0u);
  ASSERT_EQ(cpa.span_hi(), 6u);
  const std::vector<std::uint8_t> csnap = cpa.serialize_state();
  qd::OnlineCpa cvictim(model, 4);
  cvictim.add_prefix(ts, 0, 3);
  const std::vector<std::uint8_t> cbefore = cvictim.serialize_state();
  for (const auto& bad : {patched(csnap, 40, 7),      // hi > m
                          patched(csnap, 32, 7),      // lo > hi, lo > m
                          patched(patched(csnap, 32, 4), 40, 3),  // lo > hi
                          // [1, 7): the width still matches the stored
                          // sums, only the bound check can catch it
                          patched(patched(csnap, 32, 1), 40, 7)}) {
    EXPECT_EQ(restore_kind(cvictim, bad), qd::StateError::Kind::Geometry);
    EXPECT_EQ(cvictim.serialize_state(), cbefore);
  }
  qd::OnlineCpa empty(model, 4);
  empty.add_prefix(ts, 0, 9);
  empty.reset();
  const std::vector<std::uint8_t> esnap = empty.serialize_state();
  EXPECT_EQ(restore_kind(cvictim, patched(esnap, 40, 2)),
            qd::StateError::Kind::Geometry);

  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0)};
  qd::OnlineDpa dpa(bits, 4);
  dpa.add_prefix(ts, 0, 9);
  const std::vector<std::uint8_t> dsnap = dpa.serialize_state();
  qd::OnlineDpa dvictim(bits, 4);
  dvictim.add_prefix(ts, 0, 3);
  const std::vector<std::uint8_t> dbefore = dvictim.serialize_state();
  for (const auto& bad : {patched(dsnap, 48, 7), patched(dsnap, 40, 7),
                          patched(patched(dsnap, 40, 1), 48, 7)}) {
    EXPECT_EQ(restore_kind(dvictim, bad), qd::StateError::Kind::Geometry);
    EXPECT_EQ(dvictim.serialize_state(), dbefore);
  }
}

TEST(OnlineMerge, SnapshotCarriesTheSpanOnly) {
  // m = 64 samples of which only [5, 9) vary: besides the reference row,
  // the snapshot holds 4 samples per per-sample sum and per class row.
  qu::Rng rng(0x5d);
  qd::TraceSet ts;
  for (std::size_t i = 0; i < 30; ++i) {
    qp::PowerTrace t(0.0, 10.0, 64);
    for (std::size_t j = 0; j < 64; ++j) t[j] = 100.0;
    for (std::size_t j = 5; j < 9; ++j) t[j] += rng.gaussian(0.0, 1.0);
    ts.add(t, {rng.byte()});
  }
  qd::OnlineCpa cpa(qd::aes_xor_hw_model(0), 256);
  cpa.add_prefix(ts, 0, ts.size());
  const std::size_t head = 6 * 8 + (8 + 64 * 8);
  const std::size_t w = 4;
  EXPECT_EQ(cpa.serialize_state().size(),
            head + 2 * (8 + w * 8) + (8 + 256 * 8) + (8 + 256 * w * 8));
  qd::OnlineCpa back(qd::aes_xor_hw_model(0), 256);
  back.restore_state(cpa.serialize_state());
  EXPECT_EQ(back.span_lo(), 5u);
  EXPECT_EQ(back.span_hi(), 9u);
  EXPECT_EQ(back.serialize_state(), cpa.serialize_state());
}

TEST(OnlineMerge, EveryTruncationLengthIsRejectedAndLeavesStateUntouched) {
  // Tiny geometry so every truncation length is cheap to fuzz: the
  // snapshot must be rejected at EVERY proper prefix, and a failed
  // restore must leave the receiving accumulator bit-identical.
  qu::Rng rng(0x58);
  const qd::TraceSet ts = random_traces(12, 5, rng);
  const qd::LeakageModel model = qd::aes_xor_hw_model(0);

  {
    qd::OnlineCpa acc(model, 4);
    acc.add_prefix(ts, 0, 12);
    const std::vector<std::uint8_t> snap = acc.serialize_state();

    qd::OnlineCpa victim(model, 4);
    victim.add_prefix(ts, 0, 7);
    const std::vector<std::uint8_t> before = victim.serialize_state();
    for (std::size_t len = 0; len < snap.size(); ++len) {
      const std::vector<std::uint8_t> cut(snap.begin(),
                                          snap.begin() + static_cast<long>(len));
      EXPECT_THROW(victim.restore_state(cut), qd::StateError)
          << "CPA snapshot truncated to " << len << " bytes";
      EXPECT_EQ(victim.serialize_state(), before)
          << "failed restore disturbed the accumulator (len " << len << ")";
    }
    victim.restore_state(snap);  // the untruncated snapshot still lands
    EXPECT_EQ(victim.count(), acc.count());
  }

  {
    const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0)};
    qd::OnlineDpa acc(bits, 4);
    acc.add_prefix(ts, 0, 12);
    const std::vector<std::uint8_t> snap = acc.serialize_state();

    qd::OnlineDpa victim(bits, 4);
    victim.add_prefix(ts, 0, 7);
    const std::vector<std::uint8_t> before = victim.serialize_state();
    for (std::size_t len = 0; len < snap.size(); ++len) {
      const std::vector<std::uint8_t> cut(snap.begin(),
                                          snap.begin() + static_cast<long>(len));
      EXPECT_THROW(victim.restore_state(cut), qd::StateError)
          << "DPA snapshot truncated to " << len << " bytes";
      EXPECT_EQ(victim.serialize_state(), before)
          << "failed restore disturbed the accumulator (len " << len << ")";
    }
    victim.restore_state(snap);
    EXPECT_EQ(victim.count(), acc.count());
  }
}

TEST(OnlineMerge, ShardStateBitIdenticalAcrossThreadCounts) {
  // Each shard runner ingests on its own thread while workers acquire;
  // the class tables it commits are a function of its trace stream
  // alone, so 1, 2 and 4 threads (shards in flight and acquisition
  // workers alike) must seal byte-identical accumulator snapshots.
  for (const bool dpa : {true, false}) {
    std::vector<std::vector<std::uint8_t>> first;
    for (const unsigned threads : {1u, 2u, 4u}) {
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("qdi_online_merge_threads_" + std::to_string(threads));
      std::filesystem::remove_all(dir);
      qc::ShardedOptions opt;
      opt.shards = 3;
      opt.checkpoint_interval = 24;
      opt.chunk_traces = 8;
      opt.concurrency = threads;
      opt.backoff_ms = 0;
      opt.checkpoint_dir = dir.string();
      qc::Campaign campaign;
      campaign.target(qc::des_sbox_slice()).key(0x15).seed(7).traces(90)
          .threads(threads);
      if (dpa)
        campaign.attack(qc::Dpa{});
      else
        campaign.attack(qc::Cpa{});
      const qc::ShardedResult res = campaign.sharded(opt);
      ASSERT_TRUE(res.complete());
      std::vector<std::vector<std::uint8_t>> states;
      for (std::size_t s = 0; s < res.shards.size(); ++s) {
        std::ifstream in(qc::checkpoint_path(opt.checkpoint_dir, s),
                         std::ios::binary);
        const std::vector<std::uint8_t> record(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        const qc::ShardCheckpoint c = qc::decode_checkpoint(record);
        EXPECT_EQ(c.next, c.hi) << "shard " << s;
        states.push_back(c.acc_state);
      }
      std::filesystem::remove_all(dir);
      if (first.empty())
        first = std::move(states);
      else
        EXPECT_EQ(states, first) << threads << " threads";
    }
  }
}
