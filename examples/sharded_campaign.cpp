// Crash-safe sharded DPA campaign: the trace budget is partitioned into
// shards that checkpoint their accumulator + stream-digest state
// durably as they go, so a killed campaign resumes from the last commit
// instead of re-acquiring everything.
//
// The demo stages a crash on purpose: run 1 "dies" partway through
// (a fault hook aborts every shard once it is past 64 traces, with
// retries disabled — the moral equivalent of SIGKILL), leaving a
// directory of checkpoints and an honest partial result. Run 2 is the SAME campaign
// pointed at the same directory: it adopts the checkpoints, finishes
// the remaining windows, and lands on results bit-identical to an
// uninterrupted run — which run 3 verifies from a fresh directory.
//
// Usage: sharded_campaign [key6_hex] [num_traces]
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "qdi/qdi.hpp"

int main(int argc, char** argv) {
  using namespace qdi;

  const std::uint8_t key =
      argc > 1
          ? static_cast<std::uint8_t>(std::strtoul(argv[1], nullptr, 16) & 0x3f)
          : 0x2b;
  const std::size_t num_traces =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 600;

  power::PowerModelParams pm;
  pm.noise_sigma_ua = 1.0;
  const auto unbalance = [](netlist::Netlist& nl) {
    for (netlist::ChannelId ch = 0; ch < nl.num_channels(); ++ch) {
      const netlist::Channel& c = nl.channel(ch);
      if (c.name.find("sbox/out") != std::string::npos)
        nl.net(c.rails[1]).cap_ff *= 1.8;
    }
  };
  const auto campaign = [&] {
    return campaign::Campaign()
        .target(campaign::des_sbox_slice())
        .key(key)
        .seed(31337)
        .traces(num_traces)
        .threads(4)
        .power(pm)
        .prepare(unbalance)
        .attack(campaign::Dpa{});
  };

  campaign::ShardedOptions opt;
  opt.shards = 4;
  opt.checkpoint_interval = 32;
  opt.chunk_traces = 16;
  opt.checkpoint_dir = "sharded_ckpt_demo";
  opt.concurrency = 2;

  // ---- run 1: the campaign that dies --------------------------------------
  std::printf("run 1: %zu traces over %zu shards, killed mid-flight...\n",
              num_traces, opt.shards);
  campaign::ShardedOptions crash = opt;
  crash.max_attempts = 1;  // a real kill gets no in-process retry
  // Keyed on the trace index, not on the number of progress calls: the
  // pool delivers one source block per call, so the call count depends
  // on the engine's batch width.
  const std::vector<campaign::ShardSpec> plan =
      campaign::plan_shards(num_traces, opt.shards);
  crash.on_progress = [&](std::size_t shard, std::uint64_t next) {
    if (next - plan[shard].lo > 64)
      throw std::runtime_error("simulated power loss");
  };
  const campaign::ShardedResult dead = campaign().sharded(crash);
  std::printf("%s\n", dead.table().to_string().c_str());
  std::printf("covered %zu/%zu traces before the crash\n\n", dead.covered,
              dead.total_traces);

  // ---- run 2: same campaign, same directory -> resume ----------------------
  std::printf("run 2: resuming from '%s'...\n", opt.checkpoint_dir.c_str());
  const campaign::ShardedResult resumed = campaign().sharded(opt);
  std::printf("%s\n", resumed.table().to_string().c_str());

  // ---- run 3: uninterrupted reference -> must be bit-identical -------------
  campaign::ShardedOptions ref_opt = opt;
  ref_opt.checkpoint_dir = "sharded_ckpt_demo_ref";
  const campaign::ShardedResult ref = campaign().sharded(ref_opt);
  bool identical = resumed.complete() && ref.complete() &&
                   resumed.attack.has_value() && ref.attack.has_value() &&
                   resumed.attack->guess_scores == ref.attack->guess_scores;
  for (std::size_t s = 0; identical && s < ref.shards.size(); ++s)
    identical = resumed.shards[s].digest_hex == ref.shards[s].digest_hex;

  std::printf("resumed vs uninterrupted: scores and stream digests %s\n",
              identical ? "bit-identical" : "DIFFER (bug!)");
  if (resumed.attack)
    std::printf("best guess 0x%02x, rank of true key %zu, margin %.2f\n",
                resumed.attack->best_guess, resumed.attack->true_key_rank,
                resumed.attack->margin);
  std::printf("result: %s\n", resumed.key_recovered()
                                  ? "secret subkey recovered"
                                  : "attack failed (increase traces)");
  return identical && resumed.key_recovered() ? 0 : 1;
}
