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
  // Layout: magic, guesses, bits, m, n (u64 each), sum_s (u64 length +
  // m doubles), then the class table: counts (u64 length + one u64 per
  // class) and sums.
  qu::Rng rng(0x59);
  const std::size_t m = 5;
  const qd::TraceSet ts = random_traces(4, m, rng);
  const std::vector<qd::SelectionFn> bits = {qd::aes_sbox_selection(0, 0)};
  qd::OnlineDpa acc(bits, 4);
  acc.add_prefix(ts, 0, 4);
  const std::vector<std::uint8_t> snap = acc.serialize_state();
  const std::size_t counts_at = 5 * 8 + 8 + m * sizeof(double) + 8;
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
  EXPECT_EQ(cpa_victim.count(), 0u);
  EXPECT_EQ(dpa_victim.count(), 0u);
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
