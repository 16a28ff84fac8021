// End-to-end campaign benchmark program.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir>
//
// --trace 0 runs a closed loop for --seconds: one campaign at a time,
// each alternating with a set-up probe (the same campaign at a minimal
// trace budget), and reports the end-to-end metrics as medians over the
// loop. --trace 1 runs the traced per-layer pass (traced.cpp) instead.
// Human-readable lines go first; the last line of standard output is
// one JSON object {correct, attempted, failed, metrics}. Checkpoint
// directories live under --work-dir and are removed before exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace qdi_bench {

namespace qc = qdi::campaign;

const std::vector<Workload>& all_workloads() {
  // aes_core_cpa: the paper's fig. 8 processor (~25k cells), fused
  //   256-guess CPA on the default compiled engine and serial ingest.
  // des_round_sharded_dpa: 4 shards of more than one default checkpoint
  //   interval (8192) each, so every shard commits twice; batch engine.
  // des_round_recipe_sweep: the paper's comparison, unprotected vs
  //   balanced vs hardened, CPA with an MTD scan.
  static const std::vector<Workload> w = {
      {"aes_core_cpa", Kind::Run, 4096, 1, 1024},
      {"des_round_sharded_dpa", Kind::Sharded, 4 * 8448, 4, 256},
      {"des_round_recipe_sweep", Kind::Sweep, 4096, 1, 1024},
  };
  return w;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : all_workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Inputs derive_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.key = qdi::util::split_stream(seed, 1).next();
  if (w.kind != Kind::Run) in.key &= 0xffffffffffffULL;  // DES round subkey
  in.campaign_seed = qdi::util::split_stream(seed, 2).next();
  return in;
}

qc::CircuitTarget workload_target(const Workload& w) {
  return w.kind == Kind::Run ? qc::aes_core() : qc::des_round();
}

std::vector<qdi::xform::Recipe> workload_recipes(const Workload& w) {
  if (w.kind != Kind::Sweep) return {};
  return {qdi::xform::unprotected(), qdi::xform::balanced(),
          qdi::xform::hardened()};
}

void unbalance_sbox0(qdi::netlist::Netlist& nl) {
  for (qdi::netlist::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
    const qdi::netlist::Channel& c = nl.channel(ch);
    if (c.name.find("sbox0/s") != std::string::npos)
      nl.net(c.rails[1]).cap_ff *= 1.8;
  }
}

qc::Campaign make_campaign(const Workload& w, const Inputs& in,
                           std::size_t traces) {
  qc::Campaign c;
  c.target(workload_target(w))
      .key(in.key)
      .seed(in.campaign_seed)
      .traces(traces)
      .threads(kThreads);
  switch (w.kind) {
    case Kind::Run:
      c.attack(qc::Cpa{}).fused();
      break;
    case Kind::Sharded:
      c.engine(qdi::sim::EngineKind::Batch).attack(qc::Dpa{});
      break;
    case Kind::Sweep: {
      qc::Cpa cpa;
      cpa.compute_mtd = true;
      cpa.mtd_start = kMtdStart;
      cpa.mtd_step = kMtdStep;
      c.prepare(unbalance_sbox0).attack(cpa);
      break;
    }
  }
  return c;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool finite_scores(const qc::AttackOutcome& a) {
  return !a.guess_scores.empty() &&
         std::all_of(a.guess_scores.begin(), a.guess_scores.end(),
                     [](double s) { return std::isfinite(s); });
}

void check_counts(CampaignRun& r, const qc::CampaignResult& res) {
  r.glitches += res.acquisition.glitches;
  r.variant_transitions.push_back(res.acquisition.transitions);
  if (res.acquisition.transitions == 0 && r.failure.empty())
    r.failure = "no transitions simulated";
  if (res.acquisition.glitches != 0 && r.failure.empty())
    r.failure = std::to_string(res.acquisition.glitches) +
                " glitches on a hazard-free QDI victim";
  if ((!res.attack || !finite_scores(*res.attack)) && r.failure.empty())
    r.failure = "attack outcome missing or non-finite";
}

}  // namespace

CampaignRun run_campaign(const Workload& w, const Inputs& in,
                         std::size_t traces, const std::string& ckpt_dir,
                         std::optional<qdi::sim::EngineKind> engine) {
  CampaignRun r;
  r.attempted = traces * (w.kind == Kind::Sweep ? workload_recipes(w).size()
                                                : std::size_t{1});
  qc::Campaign c = make_campaign(w, in, traces);
  if (engine) c.engine(*engine);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    switch (w.kind) {
      case Kind::Run: {
        const qc::CampaignResult res = c.run();
        r.wall_s = seconds_since(t0);
        r.has_counts = true;
        check_counts(r, res);
        r.folded = traces;
        break;
      }
      case Kind::Sharded: {
        // A completed store would short-circuit the run into recovery:
        // every sharded campaign starts from an empty directory.
        std::filesystem::remove_all(ckpt_dir);
        qc::ShardedOptions opt;
        opt.shards = w.shards;
        opt.checkpoint_dir = ckpt_dir;
        const qc::ShardedResult res = c.sharded(opt);
        r.wall_s = seconds_since(t0);
        std::filesystem::remove_all(ckpt_dir);
        r.folded = res.covered;
        for (const qc::ShardReport& s : res.shards) {
          r.digests.push_back(s.digest_hex);
          if (!s.done && r.failure.empty())
            r.failure = "shard " + std::to_string(s.shard) +
                        " did not complete: " + s.error;
          if (!s.resumed_from.empty() && r.failure.empty())
            r.failure = "shard " + std::to_string(s.shard) +
                        " resumed from a stale checkpoint";
        }
        if (!res.complete() && r.failure.empty())
          r.failure = "sharded run covered " + std::to_string(res.covered) +
                      " of " + std::to_string(res.total_traces) + " traces";
        if (res.shards.size() != w.shards && r.failure.empty())
          r.failure = "expected " + std::to_string(w.shards) + " shards";
        if ((!res.attack || !finite_scores(*res.attack)) && r.failure.empty())
          r.failure = "attack outcome missing or non-finite";
        break;
      }
      case Kind::Sweep: {
        const qc::SweepResult res = c.sweep(workload_recipes(w));
        r.wall_s = seconds_since(t0);
        r.has_counts = true;
        for (const qc::SweepVariant& v : res.variants) check_counts(r, v.result);
        r.folded = traces * res.variants.size();
        // Only the leaking variant has a meaningful rank; ranks on the
        // balanced variants are floating-point residue. The workload's
        // budget is sized for recovery, a set-up probe's is not.
        const qc::SweepVariant* raw = res.find("unprotected");
        if (traces == w.traces &&
            (raw == nullptr || !raw->result.key_recovered())) {
          if (r.failure.empty())
            r.failure = "unprotected variant did not recover the key";
        }
        break;
      }
    }
  } catch (const std::exception& e) {
    r.wall_s = seconds_since(t0);
    r.failure = std::string("campaign threw: ") + e.what();
  }
  if (!r.failure.empty()) r.folded = 0;
  return r;
}

std::string compare_runs(const CampaignRun& a, const CampaignRun& b) {
  if (a.has_counts && b.has_counts &&
      (a.variant_transitions != b.variant_transitions ||
       a.glitches != b.glitches))
    return "transition or glitch totals differ between runs of the same "
           "inputs";
  if (a.digests != b.digests)
    return "shard stream digests differ between runs of the same inputs";
  return {};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace qdi_bench

namespace {

using qdi_bench::Metric;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Closed loop: alternate a set-up probe and a full campaign until
/// `seconds` have passed (at least kMinCampaigns campaigns), one at a
/// time, all with the same inputs. Set-up is what a campaign costs at a
/// budget of one trace per worker (build, recipe passes, criteria,
/// compilation, pool and first-epoch reset); throughput excludes it.
int run_untraced(const qdi_bench::Workload& w, std::uint64_t seed,
                 double seconds, const std::string& work_dir) {
  constexpr std::size_t kMinCampaigns = 2;
  constexpr std::size_t kMinSetupProbes = 10;
  const qdi_bench::Inputs in = qdi_bench::derive_inputs(w, seed);
  const std::string ckpt = work_dir + "/ckpt-" + w.name + "-" +
                           std::to_string(static_cast<long>(getpid()));
  const std::size_t setup_traces = qdi_bench::kThreads;

  std::vector<double> setup_s, outcome_s;
  // Peak RSS through the first campaign: what a process running one
  // campaign holds at most. Later campaigns of the loop only add
  // allocator fragmentation that depends on how many fit in --seconds.
  double rss_mb = 0.0;
  std::vector<qdi_bench::CampaignRun> runs;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto setup_probe = [&] {
    const qdi_bench::CampaignRun p =
        qdi_bench::run_campaign(w, in, setup_traces, ckpt);
    attempted += p.attempted;
    failed += p.attempted - p.folded;
    if (!p.failure.empty()) failures.push_back("setup: " + p.failure);
    setup_s.push_back(p.wall_s);
  };
  const auto t0 = std::chrono::steady_clock::now();
  while (runs.size() < kMinCampaigns ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count() < seconds) {
    setup_probe();
    qdi_bench::CampaignRun r = qdi_bench::run_campaign(w, in, w.traces, ckpt);
    if (r.failure.empty() && !runs.empty()) {
      r.failure = qdi_bench::compare_runs(runs.front(), r);
      if (!r.failure.empty()) r.folded = 0;
    }
    attempted += r.attempted;
    failed += r.attempted - r.folded;
    if (!r.failure.empty()) failures.push_back(r.failure);
    outcome_s.push_back(r.wall_s);
    std::printf("  campaign %zu: %.3f s (set-up probe %.3f s)%s%s\n",
                runs.size() + 1, r.wall_s, setup_s.back(),
                r.failure.empty() ? "" : "  FAILED: ", r.failure.c_str());
    runs.push_back(std::move(r));
    if (runs.size() == 1) rss_mb = qdi_bench::peak_rss_mb();
  }
  // Long campaigns (the sharded workload) fit few loop iterations into
  // --seconds; top the set-up probes up so their median has enough
  // samples.
  while (setup_s.size() < kMinSetupProbes) setup_probe();
  std::filesystem::remove_all(ckpt);

  const double setup = median(setup_s);
  std::vector<double> tput;
  for (const qdi_bench::CampaignRun& r : runs)
    tput.push_back(static_cast<double>(r.folded) /
                   std::max(r.wall_s - setup, 1e-9));
  const std::vector<Metric> metrics = {
      {"traces_per_s", median(tput), "1/s"},
      {"time_to_outcome_s", median(outcome_s), "s"},
      {"setup_s", setup, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  for (const std::string& f : failures) std::printf("  check failed: %s\n", f.c_str());
  std::printf("workload %s: %zu campaigns of %zu traces, %zu set-up probes, "
              "failed_frac %.6f (of %zu traces)\n",
              w.name.c_str(), runs.size(), runs.front().attempted,
              setup_s.size(),
              static_cast<double>(failed) / static_cast<double>(attempted),
              attempted);
  print_result(failures.empty() && failed == 0, attempted, failed, metrics);
  return failures.empty() && failed == 0 ? 0 : 1;
}

int run_traced_mode(const qdi_bench::Workload& w, std::uint64_t seed,
                    double seconds, const std::string& work_dir) {
  std::vector<std::string> failures;
  std::size_t attempted = 0, failed = 0;
  const std::vector<Metric> metrics =
      qdi_bench::run_traced(w, seed, seconds, work_dir, failures, attempted,
                            failed);
  for (const std::string& f : failures) std::printf("  check failed: %s\n", f.c_str());
  std::printf("workload %s (traced): failed_frac %.6f (of %zu traces)\n",
              w.name.c_str(),
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
              attempted);
  const bool ok = failures.empty() && failed == 0 && attempted > 0;
  print_result(ok, std::max<std::size_t>(attempted, 1), failed, metrics);
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--work-dir") work_dir = v;
    else usage(("unknown option " + k).c_str());
  }
  if (argc % 2 == 0) usage("options take one value each");
  if (workload.empty() || work_dir.empty() || seconds < 0.0 ||
      (trace != 0 && trace != 1))
    usage("missing or invalid option");
  try {
    const qdi_bench::Workload& w = qdi_bench::find_workload(workload);
    std::filesystem::create_directories(work_dir);
    return trace == 1 ? run_traced_mode(w, seed, seconds, work_dir)
                      : run_untraced(w, seed, seconds, work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
}
