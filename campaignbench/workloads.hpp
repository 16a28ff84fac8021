// The benchmark's three campaign workloads and their output checks,
// shared by the untraced end-to-end loop (campaign_bench.cpp) and the
// traced per-layer run (traced.cpp).
//
// Every workload is one campaign a user waits for: build the victim,
// optionally balance it, acquire and attack. Inputs (key, campaign
// seed) derive from the benchmark's --seed only; the library receives
// nothing else. Budgets are sized so one campaign takes seconds on a
// 4-CPU box, which keeps a run's median steady (sub-second campaigns
// showed 2-3x outliers).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qdi/qdi.hpp"

namespace qdi_bench {

enum class Kind {
  Run,      ///< Campaign::run, fused CPA (aes_core_cpa)
  Sharded,  ///< Campaign::sharded, batch engine, DPA (des_round_sharded_dpa)
  Sweep,    ///< Campaign::sweep over three recipes (des_round_recipe_sweep)
};

struct Workload {
  std::string name;
  Kind kind = Kind::Run;
  /// Traces per campaign (per variant for the sweep).
  std::size_t traces = 0;
  /// Shards of the sharded workload (1 otherwise).
  std::size_t shards = 1;
  /// Acquisition chunk the library uses on this path: fused()'s default
  /// 1024, ShardedOptions::chunk_traces' default 256.
  std::size_t chunk = 1024;
};

/// Acquisition threads of every campaign: the process uses at most
/// nproc (4) threads.
inline constexpr unsigned kThreads = 4;

/// The three workloads by name; throws std::invalid_argument otherwise.
const Workload& find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

/// Inputs derived from the benchmark seed.
struct Inputs {
  std::uint64_t key = 0;
  std::uint64_t campaign_seed = 0;
};
Inputs derive_inputs(const Workload& w, std::uint64_t seed);

/// The victim target of a workload.
qdi::campaign::CircuitTarget workload_target(const Workload& w);

/// The recipes a workload runs (empty: no countermeasure stage).
std::vector<qdi::xform::Recipe> workload_recipes(const Workload& w);

/// The fully configured campaign of a workload at `traces` traces.
qdi::campaign::Campaign make_campaign(const Workload& w, const Inputs& in,
                                      std::size_t traces);

/// The sweep's rail-unbalance hook (examples/countermeasure_sweep's
/// uncontrolled-P&R stand-in), applied to the sbox0/s channels.
void unbalance_sbox0(qdi::netlist::Netlist& nl);

/// MTD scan grid of the sweep's CPA.
inline constexpr std::size_t kMtdStart = 64;
inline constexpr std::size_t kMtdStep = 64;

/// Outcome of one untraced campaign through the public API.
struct CampaignRun {
  double wall_s = 0.0;
  std::size_t attempted = 0;  ///< traces asked for
  std::size_t folded = 0;     ///< traces merged into the attack outcome
  /// Integer acquisition totals (absent on the sharded path, whose
  /// result carries no acquisition statistics).
  bool has_counts = false;
  std::size_t glitches = 0;
  /// Transition totals, one per variant (one entry outside the sweep).
  std::vector<std::size_t> variant_transitions;
  /// Per-shard stream digests of the sharded workload.
  std::vector<std::string> digests;
  /// Empty when every output check passed.
  std::string failure;
};

/// Run one campaign of `w` through the public API and check its outputs
/// that do not need a second run: completion, glitch-freedom, and on the
/// sweep that the unprotected variant recovers the key (rank 0). Never
/// throws: an exception becomes `failure`. `ckpt_dir` is emptied before
/// a sharded run and removed after it. `engine` replaces the workload's
/// engine (the cross-engine digest check).
CampaignRun run_campaign(const Workload& w, const Inputs& in,
                         std::size_t traces, const std::string& ckpt_dir,
                         std::optional<qdi::sim::EngineKind> engine = {});

/// Cross-run check: the integer totals and digests of `b` must equal
/// those of `a` (same workload, same inputs). Returns "" when they do.
std::string compare_runs(const CampaignRun& a, const CampaignRun& b);

/// A named metric value with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Traced run of one workload (traced.cpp): per-layer metrics, in the
/// order BENCHMARK.json lists them. The traced campaign repeats until
/// `seconds` have passed since the call (at least once); span-derived
/// metrics are medians over the repetitions. Output-check failures are
/// appended to `failures`; `attempted`/`failed` count the traces
/// involved.
std::vector<Metric> run_traced(const Workload& w, std::uint64_t seed,
                               double seconds, const std::string& work_dir,
                               std::vector<std::string>& failures,
                               std::size_t& attempted, std::size_t& failed);

double peak_rss_mb();

}  // namespace qdi_bench
