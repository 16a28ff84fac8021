// Traced per-layer run of one workload.
//
// The workload's campaign is driven through the layers' public calls —
// CircuitTarget::build, xform Pipeline::run, core::evaluate_criterion,
// sim::compile, WorkerPool acquisition, OnlineCpa/OnlineDpa
// add_prefix/merge/finalize and commit_checkpoint — with a span around
// each call, recorded from this file only (spans.hpp). Worker spans come
// from the TracingSource decorator around acquire_block. Traced and
// untraced API campaigns alternate until --seconds have passed, so the
// traced total can be set against the untraced one (tracing overhead).
// The run also checks outputs the untraced loop cannot: every decoded
// output against a reference model, integer transition totals of the
// traced path against the untraced API, and shard digests across
// engines. Thread-scaling rows and the 1-thread per-trace distribution
// come from separate acquire-only and ingest-only passes.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace qdi_bench {

namespace qc = qdi::campaign;

namespace {

/// The workload's attack accumulator: OnlineCpa or OnlineDpa.
class Accumulator {
 public:
  Accumulator(const Workload& w, const qc::TargetInstance& inst) {
    if (w.kind == Kind::Sharded)
      dpa_.emplace(inst.selection_bits, inst.num_guesses);
    else
      cpa_.emplace(inst.leakage, inst.num_guesses);
  }
  void add_prefix(const qdi::dpa::TraceSet& ts, std::size_t lo,
                  std::size_t hi) {
    if (lo >= hi) return;
    if (dpa_) dpa_->add_prefix(ts, lo, hi);
    else cpa_->add_prefix(ts, lo, hi);
  }
  void merge(const Accumulator& o) {
    if (dpa_) dpa_->merge(*o.dpa_);
    else cpa_->merge(*o.cpa_);
  }
  std::size_t rank_of(unsigned guess) const {
    return dpa_ ? dpa_->recover().rank_of(guess)
                : cpa_->finalize().rank_of(guess);
  }
  std::vector<std::uint8_t> serialize() const {
    return dpa_ ? dpa_->serialize_state() : cpa_->serialize_state();
  }

 private:
  std::optional<qdi::dpa::OnlineCpa> cpa_;
  std::optional<qdi::dpa::OnlineDpa> dpa_;
};

std::string layer_span_name(const std::string& pass) {
  std::string s = "xform." + pass;
  std::replace(s.begin(), s.end(), '-', '_');
  return s;
}

/// Decoded outputs a fault-free trace must produce, packed LSB-first
/// like AcquiredTrace::ciphertext. aes_core carries its reference in
/// TargetInstance::golden (a function of the plaintext record). The
/// des_round record holds only the 6-bit SBOX1 input, so its reference
/// recomputes R from the trace's stimulus stream (the stimulus is the
/// first draw of split_stream(seed, index)) and applies crypto::des_f
/// with L = 0; the recorded SBOX1 input is checked against that R too.
class Golden {
 public:
  Golden(const Workload& w, const qc::TargetInstance& inst, const Inputs& in)
      : w_(w), inst_(inst), in_(in) {}

  /// Empty when trace `index` of `seg` row `row` is correct.
  std::string check(const qdi::dpa::TraceSet& seg, std::size_t row,
                    std::size_t index) const {
    const auto pt = seg.plaintext(row);
    const auto ct = seg.ciphertext(row);
    std::vector<int> want;
    if (w_.kind == Kind::Run) {
      want = inst_.golden(std::vector<std::uint8_t>(pt.begin(), pt.end()));
    } else {
      const auto r = static_cast<std::uint32_t>(
          qdi::util::split_stream(in_.campaign_seed, index).next());
      const std::uint32_t f = qdi::crypto::des_f(r, in_.key);
      for (int j = 0; j < 32; ++j) want.push_back(static_cast<int>((f >> (31 - j)) & 1));
      std::uint8_t six = 0;
      const auto et = qdi::crypto::des_expansion_table();
      for (std::size_t j = 0; j < 6; ++j)
        six = static_cast<std::uint8_t>((six << 1) | ((r >> (32 - et[j])) & 1));
      if (pt.size() != 1 || pt[0] != six)
        return "trace " + std::to_string(index) +
               ": recorded SBOX1 input does not match the stimulus";
    }
    std::vector<std::uint8_t> packed((want.size() + 7) / 8, 0);
    for (std::size_t b = 0; b < want.size(); ++b)
      if (want[b] != 0) packed[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
    if (!std::equal(packed.begin(), packed.end(), ct.begin(), ct.end()))
      return "trace " + std::to_string(index) +
             ": decoded outputs differ from the reference model";
    return {};
  }

 private:
  const Workload& w_;
  const qc::TargetInstance& inst_;
  const Inputs& in_;
};

std::unique_ptr<qc::TraceSource> make_source(const qc::TargetInstance& inst,
                                             bool batch) {
  qc::SimTraceSourceOptions opt;
  if (batch) {
    opt.engine = qdi::sim::EngineKind::Batch;
    return std::make_unique<qc::BatchSimTraceSource>(inst.nl, inst.env,
                                                     inst.stimulus, opt);
  }
  opt.precompiled = qdi::sim::compile(inst.nl, opt.delays);
  return std::make_unique<qc::SimTraceSource>(inst.nl, inst.env, inst.stimulus,
                                              opt);
}

/// The built, prepared and transformed victim of one variant.
qc::TargetInstance build_victim(const Workload& w, const Inputs& in,
                                const qdi::xform::Recipe* recipe, Tracer* t,
                                std::size_t* cells_added) {
  std::optional<Scoped> s;
  if (t) s.emplace(*t, "gates.build");
  qc::TargetInstance inst = workload_target(w).build(in.key);
  s.reset();
  if (w.kind == Kind::Sweep) unbalance_sbox0(inst.nl);
  if (recipe != nullptr) {
    for (const auto& pass : recipe->pipeline.passes()) {
      if (t) s.emplace(*t, layer_span_name(pass->name()));
      qdi::xform::Pipeline one;
      one.add(pass);
      const qdi::xform::PipelineReport rep = one.run(inst.nl);
      s.reset();
      if (cells_added) *cells_added += rep.cells_added();
    }
  }
  return inst;
}

struct TracedCampaign {
  std::vector<std::size_t> variant_transitions;
  std::size_t glitches = 0;
  std::size_t traces = 0;
  std::size_t golden_failures = 0;
  std::size_t cells_added = 0;
  std::size_t commits = 0;
  std::size_t checkpoint_bytes = 0;
  std::vector<std::uint8_t> last_state;  ///< final accumulator snapshot
  std::vector<std::string> failures;
};

/// The workload's campaign, layer by layer, under tracer `t`. Mirrors
/// the library's default path: fused serial ingest in index order; the
/// sweep shares one pool across variants; the sharded run gives each
/// shard its own pool, commits a sealed checkpoint at every window
/// boundary and at the shard end, then merges shard states in order.
TracedCampaign traced_campaign(const Workload& w, const Inputs& in, Tracer& t,
                               const std::string& ckpt_dir) {
  TracedCampaign out;
  const std::vector<qdi::xform::Recipe> recipes = workload_recipes(w);
  const std::size_t variants = std::max<std::size_t>(recipes.size(), 1);
  const bool batch = w.kind == Kind::Sharded;
  const std::size_t kInterval = qc::ShardedOptions{}.checkpoint_interval;
  std::filesystem::remove_all(ckpt_dir);

  Scoped root(t, "campaign");
  std::optional<qc::WorkerPool> shared_pool;
  for (std::size_t v = 0; v < variants; ++v) {
    const qdi::xform::Recipe* recipe = recipes.empty() ? nullptr : &recipes[v];
    qc::TargetInstance inst = build_victim(w, in, recipe, &t, &out.cells_added);
    {
      Scoped s(t, "core.criterion");
      (void)qdi::core::evaluate_criterion(inst.nl);
    }
    std::unique_ptr<qc::TraceSource> inner;
    {
      Scoped s(t, "sim.compile");
      inner = make_source(inst, batch);
    }
    TracingSource src(std::move(inner), t);
    const Golden golden(w, inst, in);

    std::vector<Accumulator> shard_acc;
    std::size_t transitions = 0;
    for (const qc::ShardSpec& spec : qc::plan_shards(w.traces, w.shards)) {
      std::optional<qc::WorkerPool> local_pool;
      qc::WorkerPool* pool = nullptr;
      {
        Scoped s(t, "campaign.pool");
        if (w.kind == Kind::Sharded) {
          pool = &local_pool.emplace(src, kThreads);
        } else if (!shared_pool) {
          pool = &shared_pool.emplace(src, kThreads);
        } else {
          shared_pool->rebind(src);
          pool = &*shared_pool;
        }
      }
      Accumulator& acc = shard_acc.emplace_back(w, inst);
      qdi::util::Sha256 stream;
      std::size_t next_mtd = kMtdStart;
      qc::AcquisitionStats stats;
      Scoped acquire(t, "campaign.acquire");
      t.adopt(acquire.id());
      pool->acquire_chunked_range(
          spec.lo, spec.hi - spec.lo, in.campaign_seed, w.chunk,
          [&](const qdi::dpa::TraceSet& seg, std::size_t first) {
            {
              Scoped s(t, "bench.check");
              for (std::size_t i = 0; i < seg.size(); ++i) {
                const std::string err = golden.check(seg, i, first + i);
                if (!err.empty()) {
                  if (out.golden_failures++ == 0) out.failures.push_back(err);
                }
              }
            }
            // Rows up to each MTD probe, then the probe's finalize.
            std::size_t lo = 0;
            while (w.kind == Kind::Sweep && next_mtd <= first + seg.size()) {
              {
                Scoped s(t, "dpa.ingest");
                s.set_count(next_mtd - first - lo);
                acc.add_prefix(seg, lo, next_mtd - first);
              }
              lo = next_mtd - first;
              {
                Scoped s(t, "dpa.finalize");
                (void)acc.rank_of(inst.true_guess);
              }
              next_mtd += kMtdStep;
            }
            {
              Scoped s(t, "dpa.ingest");
              s.set_count(seg.size() - lo);
              acc.add_prefix(seg, lo, seg.size());
            }
            if (w.kind != Kind::Sharded) return;
            {
              Scoped s(t, "util.digest");
              for (std::size_t i = 0; i < seg.size(); ++i) {
                stream.update_u64(first + i);
                stream.update(seg.plaintext(i));
                stream.update(seg.ciphertext(i));
              }
            }
            const std::size_t next = first + seg.size();
            if ((next - spec.lo) % kInterval != 0 && next != spec.hi) return;
            Scoped s(t, "checkpoint.commit");
            qc::ShardCheckpoint c;
            c.shard = spec.shard;
            c.lo = spec.lo;
            c.hi = spec.hi;
            c.next = next;
            c.digest = stream.save();
            c.acc_state = acc.serialize();
            qc::commit_checkpoint(ckpt_dir, c, qdi::util::Durability::RenameOnly);
            ++out.commits;
            out.checkpoint_bytes += static_cast<std::size_t>(
                std::filesystem::file_size(qc::checkpoint_path(ckpt_dir, spec.shard)));
          },
          &stats);
      t.adopt(-1);
      transitions += stats.transitions;
      out.glitches += stats.glitches;
      out.traces += spec.hi - spec.lo;
    }
    if (shard_acc.size() > 1) {
      Scoped s(t, "dpa.merge");
      for (std::size_t k = 1; k < shard_acc.size(); ++k)
        shard_acc.front().merge(shard_acc[k]);
    }
    std::size_t rank = 0;
    {
      Scoped s(t, "dpa.finalize");
      rank = shard_acc.front().rank_of(inst.true_guess);
    }
    if (recipe != nullptr && recipe->name == "unprotected" && rank != 0)
      out.failures.push_back("traced unprotected variant: true-key rank " +
                             std::to_string(rank));
    out.variant_transitions.push_back(transitions);
    out.last_state = shard_acc.front().serialize();
    if (shared_pool) shared_pool->unbind();
  }
  std::filesystem::remove_all(ckpt_dir);
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Acquire-only throughput (traces/s) over `n` traces at `threads`:
/// the median of `reps` passes over one warm pool. `stats` receives the
/// first pass's totals.
double acquire_only(qc::TraceSource& src, unsigned threads, std::size_t n,
                    std::uint64_t seed, std::size_t chunk, int reps,
                    qc::AcquisitionStats* stats = nullptr) {
  qc::WorkerPool pool(src, threads);
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    pool.acquire_chunked(n, seed, chunk,
                         [](const qdi::dpa::TraceSet&, std::size_t) {},
                         rep == 0 ? stats : nullptr);
    rates.push_back(static_cast<double>(n) / seconds_since(t0));
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

/// Ingest-only throughput (traces/s): `threads` accumulators each fold
/// a contiguous share of a materialized trace set in chunk-sized
/// add_prefix calls, concurrently; the median of three passes. Each
/// accumulator takes one row before the clock starts, so the sums'
/// first-touch allocation is not timed.
double ingest_only(const Workload& w, const qc::TargetInstance& inst,
                   const qdi::dpa::TraceSet& ts, unsigned threads) {
  const std::size_t n = ts.size();
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<Accumulator> accs;
    for (unsigned k = 0; k < threads; ++k) {
      accs.emplace_back(w, inst);
      accs.back().add_prefix(ts, n * k / threads, n * k / threads + 1);
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (unsigned k = 0; k < threads; ++k) {
      pool.emplace_back([&, k] {
        const std::size_t lo = n * k / threads + 1, hi = n * (k + 1) / threads;
        for (std::size_t a = lo; a < hi; a += w.chunk)
          accs[k].add_prefix(ts, a, std::min(a + w.chunk, hi));
      });
    }
    for (std::thread& th : pool) th.join();
    rates.push_back(static_cast<double>(n - threads) / seconds_since(t0));
  }
  std::sort(rates.begin(), rates.end());
  return rates[1];
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Span-derived figures of one traced campaign: the spans under one
/// "campaign" root.
struct Figures {
  std::map<std::string, double> total_s;  ///< summed duration per span name
  std::map<std::string, double> self_s;   ///< summed self time per span name
  std::map<std::string, std::size_t> count;
  double root_s = 0.0;
  double serial_in_acquire_s = 0.0;
  double uncovered_s = 0.0;
};

std::vector<Figures> figures_per_campaign(const std::vector<Span>& spans) {
  std::vector<int> root(spans.size(), -1);
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  std::map<int, std::size_t> slot;
  std::vector<Figures> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int>(i) : root[static_cast<std::size_t>(p)];
    if (p >= 0) children[static_cast<std::size_t>(p)].emplace_back(spans[i].t0, spans[i].t1);
    if (p < 0) {
      slot[static_cast<int>(i)] = out.size();
      out.emplace_back().root_s = spans[i].t1 - spans[i].t0;
    }
  }
  std::vector<std::vector<std::pair<double, double>>> layer_iv(out.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    Figures& f = out[slot[root[i]]];
    f.total_s[sp.name] += sp.t1 - sp.t0;
    f.self_s[sp.name] += sp.t1 - sp.t0 - covered(children[i], sp.t0, sp.t1);
    f.count[sp.name] += sp.count;
    if (sp.parent < 0 || sp.name == "campaign.acquire") continue;
    layer_iv[slot[root[i]]].emplace_back(sp.t0, sp.t1);
    // Serial work the coordinating thread does inside acquisition, while
    // no worker runs (the pool spawns workers per segment).
    if (spans[static_cast<std::size_t>(sp.parent)].name == "campaign.acquire" &&
        sp.name != "sim.acquire_block" && sp.name != "bench.check")
      f.serial_in_acquire_s += sp.t1 - sp.t0;
  }
  for (const auto& [r, k] : slot) {
    const Span& sp = spans[static_cast<std::size_t>(r)];
    out[k].uncovered_s = out[k].root_s - covered(layer_iv[k], sp.t0, sp.t1);
  }
  return out;
}

double median_of(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace

std::vector<Metric> run_traced(const Workload& w, std::uint64_t seed,
                               double seconds, const std::string& work_dir,
                               std::vector<std::string>& failures,
                               std::size_t& attempted, std::size_t& failed) {
  const auto t_start = std::chrono::steady_clock::now();
  const Inputs in = derive_inputs(w, seed);
  const std::string ckpt = work_dir + "/ckpt-traced-" + w.name;
  const auto count_run = [&](const CampaignRun& r, const char* what) {
    attempted += r.attempted;
    failed += r.attempted - r.folded;
    if (!r.failure.empty()) failures.push_back(std::string(what) + ": " + r.failure);
  };

  // ---- untraced reference: the workload's campaign through the API --------
  // The first campaign of a process pays first-touch costs (page faults,
  // worker first-epoch resets) that the untraced loop's median leaves
  // out; it is the reference for the output checks, not for timing.
  const CampaignRun ref = run_campaign(w, in, w.traces, ckpt);
  count_run(ref, "untraced campaign");

  // Sharded: shard digests across engines, and the batch engine's
  // transition totals against the compiled engine's.
  std::size_t compiled_transitions = 0;
  if (w.kind == Kind::Sharded) {
    const CampaignRun compiled =
        run_campaign(w, in, w.traces, ckpt, qdi::sim::EngineKind::Compiled);
    count_run(compiled, "compiled-engine sharded campaign");
    if (compiled.failure.empty() && ref.failure.empty() &&
        compiled.digests != ref.digests) {
      failures.push_back("shard stream digests differ between the batch and "
                         "compiled engines");
      failed += compiled.attempted;
    }
    const qc::TargetInstance inst = build_victim(w, in, nullptr, nullptr, nullptr);
    const auto src = make_source(inst, /*batch=*/false);
    qc::AcquisitionStats st;
    acquire_only(*src, kThreads, w.traces, in.campaign_seed, w.chunk, 1, &st);
    compiled_transitions = st.transitions;
  }

  // ---- acquire-only and ingest-only passes ---------------------------------
  // 1-thread per-block distribution (traced), then untraced scaling rows.
  // Probe sizes give each of 4 workers several blocks per segment.
  const std::size_t probe_n = w.kind == Kind::Run ? 1024 : 4096;
  const std::size_t probe_chunk = 1024;
  const bool batch = w.kind == Kind::Sharded;
  const qc::TargetInstance inst = build_victim(w, in, nullptr, nullptr, nullptr);
  std::vector<double> per_trace_us;
  double block_s = 0.0;
  double lane_occupancy = 1.0;  // scalar engines: one trace per commit
  qc::AcquisitionStats st1;
  {
    Tracer probe;
    TracingSource src(make_source(inst, batch), probe);
    acquire_only(src, 1, probe_n, in.campaign_seed, probe_chunk, 1, &st1);
    for (const Span& sp : probe.spans()) {
      per_trace_us.push_back(1e6 * (sp.t1 - sp.t0) / static_cast<double>(sp.count));
      block_s += sp.t1 - sp.t0;
    }
    if (batch)
      lane_occupancy = static_cast<qc::BatchSimTraceSource&>(src.inner())
                           .mean_lane_occupancy();
  }
  double acq[3] = {0, 0, 0}, ing[3] = {0, 0, 0};
  const unsigned thread_rows[3] = {1, 2, 4};
  {
    const auto src = make_source(inst, batch);
    for (int k = 0; k < 3; ++k)
      acq[k] = acquire_only(*src, thread_rows[k], probe_n, in.campaign_seed,
                            probe_chunk, 3);
    qc::WorkerPool pool(*src, kThreads);
    const qdi::dpa::TraceSet ts = pool.acquire(probe_n, in.campaign_seed);
    for (int k = 0; k < 3; ++k) ing[k] = ingest_only(w, inst, ts, thread_rows[k]);
  }

  // ---- untraced and traced campaigns, alternating until --seconds ----------
  Tracer tracer;
  TracedCampaign tc;
  std::vector<double> untraced_s;
  std::size_t glitches = 0;
  const std::size_t traced_traces =
      w.traces * std::max<std::size_t>(workload_recipes(w).size(), 1);
  do {
    const CampaignRun again = run_campaign(w, in, w.traces, ckpt);
    count_run(again, "untraced campaign");
    if (ref.failure.empty() && again.failure.empty()) {
      const std::string diff = compare_runs(ref, again);
      if (!diff.empty()) {
        failures.push_back(diff);
        failed += again.attempted;
      }
    }
    untraced_s.push_back(again.wall_s);
    tc = TracedCampaign{};
    try {
      tc = traced_campaign(w, in, tracer, ckpt + "-layers");
    } catch (const std::exception& e) {
      tc.failures.push_back(std::string("traced campaign threw: ") + e.what());
    }
    attempted += traced_traces;
    glitches += tc.glitches;
    if (tc.glitches != 0)
      tc.failures.push_back(std::to_string(tc.glitches) + " glitches in the traced run");
    if (ref.has_counts && tc.variant_transitions != ref.variant_transitions)
      tc.failures.push_back("traced transition totals differ from the untraced campaign");
    if (batch && (tc.variant_transitions.size() != 1 ||
                  tc.variant_transitions.front() != compiled_transitions))
      tc.failures.push_back("batch-engine transition totals differ from the "
                            "compiled engine's");
    if (tc.traces != traced_traces)
      tc.failures.push_back("traced run acquired " + std::to_string(tc.traces) + " traces");
    if (!tc.failures.empty()) {
      failed += traced_traces;
      for (const std::string& f : tc.failures) failures.push_back(f);
      break;
    }
  } while (seconds_since(t_start) < seconds);

  // SHA-256 over the checkpoint payload (the seal's work), >= 64 MiB.
  double sha_mb_s = 0.0;
  if (!tc.last_state.empty()) {
    const std::size_t n =
        std::max<std::size_t>(1, (std::size_t{64} << 20) / tc.last_state.size());
    std::array<std::uint8_t, 32> first{};
    bool stable = true;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < n; ++r) {
      qdi::util::Sha256 h;
      h.update(tc.last_state);
      const std::array<std::uint8_t, 32> d = h.digest();
      if (r == 0) first = d;
      stable &= d == first;
    }
    sha_mb_s = static_cast<double>(n * tc.last_state.size()) / 1e6 /
               seconds_since(t0);
    if (!stable) failures.push_back("SHA-256 of one buffer is not repeatable");
  }

  if (!tracer.write_jsonl(work_dir + "/spans-" + w.name + ".jsonl"))
    failures.push_back("could not write the span file");

  // ---- layer metrics: per traced campaign, then the median over them -------
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const std::vector<Figures> figs = figures_per_campaign(tracer.spans());
  std::map<std::string, double> mean_self;
  for (const Figures& f : figs)
    for (const auto& [name, s] : f.self_s)
      mean_self[name] += s / static_cast<double>(figs.size());
  double mean_root = 0.0;
  for (const Figures& f : figs) mean_root += f.root_s / static_cast<double>(figs.size());
  std::vector<std::pair<double, std::string>> by_self;
  for (const auto& [name, s] : mean_self) by_self.emplace_back(s, name);
  std::sort(by_self.rbegin(), by_self.rend());
  std::printf("layer self time, mean of %zu traced %s campaigns (share of the "
              "campaign's wall; worker spans overlap each other):\n",
              figs.size(), w.name.c_str());
  for (const auto& [s, name] : by_self)
    std::printf("  %-24s %12.3f ms %7.2f%%\n", name.c_str(), s * 1e3,
                100.0 * ratio(s, mean_root));

  const auto per_campaign = [&](auto fn) {
    std::vector<double> v;
    for (const Figures& f : figs) {
      const auto get = [&f](const char* name) {
        const auto it = f.total_s.find(name);
        return it == f.total_s.end() ? 0.0 : it->second;
      };
      const auto count = [&f](const char* name) {
        const auto it = f.count.find(name);
        return it == f.count.end() ? 0.0 : static_cast<double>(it->second);
      };
      v.push_back(fn(f, get, count));
    }
    return median_of(v);
  };
  const auto ms_of = [&](const char* name) {
    return per_campaign([name](const Figures&, auto get, auto) { return get(name) * 1e3; });
  };
  const auto acquire_s = [](auto get) {
    return get("campaign.acquire") - get("bench.check");
  };
  const double traced_s = per_campaign(
      [](const Figures& f, auto get, auto) { return f.root_s - get("bench.check"); });
  const double commits = static_cast<double>(tc.commits);

  return {
      {"gates.build_ms", ms_of("gates.build"), "ms"},
      {"xform.cone_balance_ms", ms_of("xform.cone_balance"), "ms"},
      {"xform.cap_equalize_ms", ms_of("xform.cap_equalize"), "ms"},
      {"xform.random_delay_ms", ms_of("xform.random_delay"), "ms"},
      {"xform.cells_added", static_cast<double>(tc.cells_added), "count"},
      {"core.criterion_ms", ms_of("core.criterion"), "ms"},
      {"sim.compile_ms", ms_of("sim.compile"), "ms"},
      {"sim.trace_us_p50", quantile(per_trace_us, 0.5), "us"},
      {"sim.trace_us_p99", quantile(per_trace_us, 0.99), "us"},
      {"sim.trace_us_samples", static_cast<double>(per_trace_us.size()), "count"},
      {"sim.transitions_per_trace",
       ratio(static_cast<double>(st1.transitions), static_cast<double>(probe_n)),
       "count"},
      {"sim.ns_per_transition",
       ratio(block_s * 1e9, static_cast<double>(st1.transitions)), "ns"},
      {"sim.glitches", static_cast<double>(glitches + st1.glitches), "count"},
      {"sim.lane_occupancy", lane_occupancy, "lanes"},
      {"sim.acquire_traces_per_s_1t", acq[0], "1/s"},
      {"sim.acquire_traces_per_s_2t", acq[1], "1/s"},
      {"sim.acquire_traces_per_s_4t", acq[2], "1/s"},
      {"sim.acquire_scaling_2t", ratio(acq[1], acq[0]), "x"},
      {"sim.acquire_scaling_4t", ratio(acq[2], acq[0]), "x"},
      {"dpa.ingest_traces_per_s_1t", ing[0], "1/s"},
      {"dpa.ingest_traces_per_s_2t", ing[1], "1/s"},
      {"dpa.ingest_traces_per_s_4t", ing[2], "1/s"},
      {"dpa.ingest_us_per_trace",
       per_campaign([&](const Figures&, auto get, auto count) {
         return ratio(get("dpa.ingest") * 1e6, count("dpa.ingest"));
       }),
       "us"},
      {"dpa.merge_ms", ms_of("dpa.merge"), "ms"},
      {"dpa.finalize_ms", ms_of("dpa.finalize"), "ms"},
      {"campaign.coordinator_share",
       per_campaign([&](const Figures& f, auto get, auto) {
         return ratio(f.serial_in_acquire_s, acquire_s(get));
       }),
       "frac"},
      {"campaign.worker_idle_frac",
       per_campaign([&](const Figures&, auto get, auto) {
         return 1.0 - ratio(get("sim.acquire_block"), kThreads * acquire_s(get));
       }),
       "frac"},
      {"checkpoint.commit_ms", ratio(ms_of("checkpoint.commit"), commits), "ms"},
      {"checkpoint.bytes", ratio(static_cast<double>(tc.checkpoint_bytes), commits),
       "B"},
      {"util.sha256_mb_per_s", sha_mb_s, "MB/s"},
      {"trace.traced_s", traced_s, "s"},
      {"trace.untraced_s", median_of(untraced_s), "s"},
      {"trace.overhead_frac", ratio(traced_s, median_of(untraced_s)) - 1.0, "frac"},
      {"trace.uncovered_frac",
       per_campaign([&](const Figures& f, auto get, auto) {
         return ratio(f.uncovered_s, f.root_s - get("bench.check"));
       }),
       "frac"},
  };
}

}  // namespace qdi_bench
