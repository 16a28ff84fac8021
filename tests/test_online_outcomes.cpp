// Discrete attack outcomes on every registry target.
//
// For each target with a guess space, and for DPA and CPA alike, the
// best guess, the true-key rank and the MTD must agree across
//
//  * materialized, fused and sharded campaigns (the sharded MTD probes
//    after each shard merge, so the MTD grid here is the shard size),
//  * the default acquisition engine (the 64-lane batch kernel) and
//    engine(Compiled), which must also agree on every trace and every
//    shard stream digest,
//  * 1 and 4 acquisition threads,
//  * the portable and the AVX2 kernel arm (the materialized traces are
//    replayed through accumulators pinned to each arm, with the probe
//    logic of the campaign's attack stage).
//
// On the balanced stock targets every trace is bitwise identical, so
// the reference-shifted accumulators see no live sample and the outcome
// is exact: all-zero scores, rank G - 1 and MTD 0 — "indistinguishable",
// not a rank picked by rounding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "qdi/dpa/kernels.hpp"
#include "qdi/qdi.hpp"

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
namespace qk = qdi::dpa::kernels;

namespace {

constexpr std::uint64_t kKey = 0x2b;
constexpr std::size_t kTraces = 128;
constexpr std::size_t kShards = 4;
constexpr std::size_t kStep = kTraces / kShards;  // MTD grid = shard size

struct Outcome {
  unsigned best_guess = 0;
  std::size_t rank = 0;
  std::size_t mtd = 0;
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{best " << o.best_guess << ", rank " << o.rank << ", mtd "
            << o.mtd << "}";
}

Outcome of(const qc::AttackOutcome& a) {
  return {a.best_guess, a.true_key_rank, a.mtd};
}

qc::Campaign campaign(const std::string& target, bool dpa, unsigned threads,
                      bool compiled) {
  qc::Campaign c;
  c.target(qc::find_target(target)).key(kKey).seed(3).traces(kTraces)
      .threads(threads);
  if (compiled) c.engine(qdi::sim::EngineKind::Compiled);
  if (dpa) {
    qc::Dpa cfg;
    cfg.compute_mtd = true;
    cfg.mtd_start = kStep;
    cfg.mtd_step = kStep;
    c.attack(cfg);
  } else {
    qc::Cpa cfg;
    cfg.compute_mtd = true;
    cfg.mtd_start = kStep;
    cfg.mtd_step = kStep;
    c.attack(cfg);
  }
  return c;
}

/// The campaign attack stage's probe logic on accumulators pinned to
/// one kernel arm: MTD probes at the grid (DPA: the single-bit attack),
/// then the outcome over every trace; MTD only when rank 0.
Outcome replay(const qd::TraceSet& ts, const qc::TargetInstance& inst,
               bool dpa, const qk::KernelTable& arm) {
  qd::MtdScan scan;
  Outcome out;
  if (dpa) {
    qd::OnlineDpa acc(inst.selection_bits, inst.num_guesses);
    acc.set_kernels(arm);
    for (std::size_t n = kStep; n <= ts.size(); n += kStep) {
      acc.add_prefix(ts, acc.count(), n);
      const qd::KeyRecoveryResult r = acc.recover_single(0);
      scan.probe(r.best_guess == inst.true_guess && r.best_peak > 0.0, n);
    }
    const qd::KeyRecoveryResult r = acc.recover();
    out = {r.best_guess, r.rank_of(inst.true_guess), 0};
  } else {
    qd::OnlineCpa acc(inst.leakage, inst.num_guesses);
    acc.set_kernels(arm);
    for (std::size_t n = kStep; n <= ts.size(); n += kStep) {
      acc.add_prefix(ts, acc.count(), n);
      const qd::CpaResult r = acc.finalize();
      scan.probe(r.best_guess == inst.true_guess && r.best_rho > 0.0, n);
    }
    const qd::CpaResult r = acc.finalize();
    out = {r.best_guess, r.rank_of(inst.true_guess), 0};
  }
  if (out.rank == 0) out.mtd = scan.value();
  return out;
}

bool same_traces(const qd::TraceSet& a, const qd::TraceSet& b) {
  if (a.size() != b.size() || a.num_samples() != b.num_samples())
    return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(a.matrix().row(i).data(), b.matrix().row(i).data(),
                    a.num_samples() * sizeof(double)) != 0 ||
        !std::ranges::equal(a.plaintext(i), b.plaintext(i)))
      return false;
  return true;
}

bool all_traces_identical(const qd::TraceSet& ts) {
  const std::size_t bytes = ts.num_samples() * sizeof(double);
  for (std::size_t i = 1; i < ts.size(); ++i)
    if (std::memcmp(ts.matrix().row(i).data(), ts.matrix().row(0).data(),
                    bytes) != 0)
      return false;
  return true;
}

}  // namespace

TEST(DiscreteOutcomes, AgreeAcrossPathsThreadsAndArmsOnEveryTarget) {
  std::vector<std::string> balanced;
  std::size_t attacked = 0;
  for (const std::string& name : qc::list_targets()) {
    const qc::TargetInstance inst = qc::find_target(name).build(kKey);
    ASSERT_TRUE(inst.simulatable) << name;
    if (inst.num_guesses == 0) {
      // No keyed intermediate (xor_stage, dual_rail_pair, one_of_four):
      // nothing to rank.
      EXPECT_TRUE(inst.selection_bits.empty()) << name;
      continue;
    }
    ++attacked;
    bool identical = false;
    for (const bool dpa : {true, false}) {
      SCOPED_TRACE(name + (dpa ? " DPA" : " CPA"));
      std::vector<std::string> want_digests;
      const qc::CampaignResult ref = campaign(name, dpa, 1, false).run();
      ASSERT_TRUE(ref.attack.has_value());
      EXPECT_EQ(ref.acquisition.engine, "batch-sim");
      const Outcome want = of(*ref.attack);
      identical = all_traces_identical(ref.traces);

      for (const bool compiled : {false, true}) {
        SCOPED_TRACE(compiled ? "engine(Compiled)" : "default engine");
        for (const unsigned threads : {1u, 4u}) {
          SCOPED_TRACE(std::to_string(threads) + " threads");
          if (threads != 1 || compiled) {
            const qc::CampaignResult r =
                campaign(name, dpa, threads, compiled).run();
            EXPECT_EQ(of(*r.attack), want) << "materialized";
            EXPECT_TRUE(same_traces(r.traces, ref.traces)) << "traces";
          }
          EXPECT_EQ(of(*campaign(name, dpa, threads, compiled)
                             .fused(40)
                             .run()
                             .attack),
                    want)
              << "fused";
          const std::filesystem::path dir =
              std::filesystem::temp_directory_path() /
              ("qdi_outcomes_" + name + std::to_string(threads) +
               (compiled ? "c" : "b"));
          std::filesystem::remove_all(dir);
          qc::ShardedOptions opt;
          opt.shards = kShards;
          opt.concurrency = threads;
          opt.chunk_traces = 16;
          opt.backoff_ms = 0;
          opt.checkpoint_dir = dir.string();
          const qc::ShardedResult sharded =
              campaign(name, dpa, threads, compiled).sharded(opt);
          std::filesystem::remove_all(dir);
          ASSERT_TRUE(sharded.complete());
          EXPECT_EQ(of(*sharded.attack), want) << "sharded";
          std::vector<std::string> digests;
          for (const qc::ShardReport& sh : sharded.shards)
            digests.push_back(sh.digest_hex);
          if (want_digests.empty()) want_digests = digests;
          EXPECT_EQ(digests, want_digests) << "shard digests";
        }
      }

      const qc::TargetInstance target = qc::find_target(name).build(kKey);
      for (const qk::Kind kind : {qk::Kind::Portable, qk::Kind::Avx2}) {
        const qk::KernelTable* arm = qk::table(kind);
        if (arm == nullptr) continue;  // no AVX2 on this build/CPU
        EXPECT_EQ(replay(ref.traces, target, dpa, *arm), want) << arm->name;
      }

      if (identical) {
        for (double s : ref.attack->guess_scores) EXPECT_EQ(s, 0.0);
        EXPECT_EQ(want.rank, inst.num_guesses - 1u);
        EXPECT_EQ(want.mtd, 0u);
      }
    }
    if (identical) balanced.push_back(name);
  }
  EXPECT_EQ(attacked, 5u);
  // The paper's claim on the stock QDI targets, exactly: their traces
  // carry no data dependence at all in this noiseless model.
  for (const char* stock : {"aes_byte_slice", "des_sbox_slice", "des_round"})
    EXPECT_NE(std::find(balanced.begin(), balanced.end(), stock),
              balanced.end())
        << stock << " should produce bitwise-identical traces";
}
