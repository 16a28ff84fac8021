#include "qdi/campaign/trace_source.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "qdi/campaign/batch_trace_source.hpp"

namespace qdi::campaign {

std::shared_ptr<const sim::CompiledNetlist> compile_for_engine(
    sim::EngineKind engine, const netlist::Netlist& nl,
    const sim::DelayModel& delays,
    const std::shared_ptr<const sim::CompiledNetlist>& precompiled) {
  if (engine != sim::EngineKind::Compiled) return nullptr;
  return precompiled ? precompiled : sim::compile(nl, delays);
}

std::unique_ptr<sim::SimEngine> make_scalar_engine(
    const std::shared_ptr<const sim::CompiledNetlist>& compiled,
    const netlist::Netlist& nl, const sim::DelayModel& delays) {
  if (compiled) return std::make_unique<sim::CompiledSimulator>(compiled);
  return std::make_unique<sim::Simulator>(nl, delays);
}

std::unique_ptr<TraceSource> make_sim_source(const netlist::Netlist& nl,
                                             sim::EnvSpec env,
                                             StimulusFn stimulus,
                                             SimTraceSourceOptions opt) {
  if (opt.engine == sim::EngineKind::Batch)
    return std::make_unique<BatchSimTraceSource>(nl, std::move(env),
                                                 std::move(stimulus),
                                                 std::move(opt));
  return std::make_unique<SimTraceSource>(nl, std::move(env),
                                          std::move(stimulus), std::move(opt));
}

namespace {

const SimTraceSourceOptions& reject_batch(const SimTraceSourceOptions& opt) {
  if (opt.engine == sim::EngineKind::Batch)
    throw std::invalid_argument(
        "SimTraceSource: EngineKind::Batch runs through "
        "campaign::BatchSimTraceSource (Campaign::engine(Batch) builds "
        "it); SimTraceSource drives the scalar engines only");
  return opt;
}

}  // namespace

SimTraceSource::SimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                               StimulusFn stimulus, SimTraceSourceOptions opt)
    : nl_(&nl),
      spec_(std::move(env)),
      stimulus_(std::move(stimulus)),
      opt_(reject_batch(opt)),
      compiled_(compile_for_engine(opt_.engine, nl, opt_.delays,
                                   opt_.precompiled)),
      sim_(make_scalar_engine(compiled_, nl, opt_.delays)),
      csim_(compiled_ ? static_cast<sim::CompiledSimulator*>(sim_.get())
                      : nullptr),
      env_(*sim_, spec_),
      acc_(opt_.power) {
  if (!stimulus_)
    throw std::invalid_argument("SimTraceSource: stimulus is required");
}

SimTraceSource::SimTraceSource(const SimTraceSource& other, WorkerCloneTag)
    : nl_(other.nl_),
      spec_(other.spec_),
      stimulus_(other.stimulus_),
      opt_(other.opt_),
      compiled_(other.compiled_),  // the compiled form is shared read-only
      sim_(make_scalar_engine(compiled_, *nl_, opt_.delays)),
      csim_(compiled_ ? static_cast<sim::CompiledSimulator*>(sim_.get())
                      : nullptr),
      env_(*sim_, spec_),
      acc_(opt_.power) {}

std::unique_ptr<TraceSource> SimTraceSource::clone() const {
  return std::unique_ptr<TraceSource>(
      new SimTraceSource(*this, WorkerCloneTag{}));
}

void SimTraceSource::acquire_into(const TraceRequest& req, AcquiredTrace& out) {
  // Every trace starts from the post-reset state in its own epoch:
  // identical absolute times, hence bit-identical floating point,
  // whatever trace history the worker carries. The compiled engine pays
  // the reset handshake once and restores its snapshot afterwards (an
  // O(activity) dirty-set revert); the reference engine re-simulates it
  // each trace.
  if (csim_ != nullptr && epoch_.has_value()) {
    csim_->restore_epoch(*epoch_);
  } else {
    sim_->reset_state();
    env_.apply_reset();
    if (csim_ != nullptr) epoch_ = csim_->save_epoch();
  }

  util::Rng rng = util::split_stream(req.seed, req.index);
  stimulus_(rng, req.index, stim_);
  // The window jitter is drawn before the cycle runs — the cycle itself
  // consumes no randomness, so the stream position is the same as
  // drawing it afterwards; this lets the streaming path open its window
  // up front.
  const double jitter = opt_.start_jitter_ps > 0.0
                            ? rng.uniform(0.0, opt_.start_jitter_ps)
                            : 0.0;

  if (opt_.engine == sim::EngineKind::Compiled) {
    // Streaming power: samples are binned at commit time; no transition
    // log is ever materialized, and finish_into ping-pongs the sample
    // buffer with the caller's slot — zero steady-state allocation.
    acc_.begin_window(env_.next_cycle_start() - jitter, spec_.period_ps);
    sim_->set_power_sink(&acc_);
    env_.send_into(stim_.values, cyc_);
    sim_->set_power_sink(nullptr);
    if (!cyc_.ok)
      throw std::runtime_error("SimTraceSource: four-phase protocol failure");
    acc_.finish_into(out.trace, &rng);
  } else {
    // Reference path: post-hoc synthesis from the transition log — kept
    // as the oracle that the streaming path is checked against.
    sim_->clear_log();
    env_.send_into(stim_.values, cyc_);
    if (!cyc_.ok)
      throw std::runtime_error("SimTraceSource: four-phase protocol failure");
    out.trace = power::synthesize(sim_->log(), cyc_.t_start - jitter,
                                  spec_.period_ps, opt_.power, &rng);
  }

  // Pack the decoded output channel values as "ciphertext" bytes
  // (LSB-first bit packing, 8 channels per byte).
  out.ciphertext.assign((cyc_.outputs.size() + 7) / 8, 0);
  for (std::size_t b = 0; b < cyc_.outputs.size(); ++b)
    if (cyc_.outputs[b] == 1)
      out.ciphertext[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
  // Copy (not move): stim_ is per-worker scratch whose capacity must
  // survive into the next trace.
  out.plaintext.assign(stim_.plaintext.begin(), stim_.plaintext.end());
  out.transitions = cyc_.transitions;
  out.merged_commits = cyc_.transitions;  // one trace per scalar commit
  out.glitches = sim_->glitch_count();
}

// ---- WorkerPool -------------------------------------------------------------

WorkerPool::WorkerPool(TraceSource& src, unsigned threads) : src_(&src) {
  if (threads == 0) threads = 1;
  num_workers_ = threads - 1;
}

void WorkerPool::rebind(TraceSource& src) {
  clones_.clear();
  src_ = &src;
}

void WorkerPool::unbind() noexcept {
  clones_.clear();
  src_ = nullptr;
}

/// The ordered pipeline behind every entry point. Trace indices are cut
/// into blocks of the source's batch_width (1 for scalar sources, 64
/// for the batch engine; the last block may be partial), and block k
/// lands in ring position k mod R of scratch_, where R is the number of
/// whole blocks covering min(chunk, count) traces, capped at
/// kRingBlocksPerThread per pool thread. The worker threads are
/// started once per call and claim blocks in index order; block k is
/// claimable only once the consumer has released block k - R, so no
/// slot is rewritten while consume() reads it. The calling thread loops
/// over: hand the longest run of finished in-order blocks (cut at the
/// ring's end, so the span is contiguous) to consume(); else acquire
/// the next claimable block itself; else wait. Acquisition of later
/// blocks therefore overlaps consume() of earlier ones, while consumers
/// still see every index once, in ascending order.
void WorkerPool::acquire_segments(std::size_t first_index, std::size_t count,
                                  std::uint64_t seed, std::size_t chunk,
                                  const SegmentFn& consume,
                                  AcquisitionStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  if (chunk == 0) chunk = 1;
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);
  const std::size_t num_blocks = (count + width - 1) / width;
  const std::size_t ring =
      std::min((std::min(chunk, count) + width - 1) / width,
               kRingBlocksPerThread * threads());
  if (scratch_.size() < ring * width) scratch_.resize(ring * width);

  // Ring state, all guarded by `mu`. done[p] marks ring position p as
  // holding an acquired, not yet consumed block.
  std::mutex mu;
  std::condition_variable released;  // workers: a ring position freed up
  std::condition_variable filled;    // caller: the head block is done
  std::vector<char> done(ring, 0);
  std::size_t head = 0;        // first block not yet consumed
  std::size_t next_claim = 0;  // next block to hand out
  bool stop = false;
  std::exception_ptr worker_error;

  const auto fill_block = [&](TraceSource& s, std::size_t k) {
    const std::size_t b = k * width;
    s.acquire_block(seed, first_index + b, std::min(width, count - b),
                    scratch_.data() + (k % ring) * width);
  };
  const auto claimable = [&] {
    return next_claim < num_blocks && next_claim < head + ring;
  };
  const auto worker = [&](TraceSource& s) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      released.wait(lock, [&] {
        return stop || next_claim >= num_blocks || claimable();
      });
      if (stop || next_claim >= num_blocks) return;
      const std::size_t k = next_claim++;
      lock.unlock();
      try {
        fill_block(s, k);
      } catch (...) {
        lock.lock();
        if (!worker_error) worker_error = std::current_exception();
        stop = true;
        filled.notify_one();
        released.notify_all();
        return;
      }
      lock.lock();
      done[k % ring] = 1;
      if (k == head) filled.notify_one();
    }
  };

  // Only threads that can get a block are started; the caller is one.
  const std::size_t spawned =
      std::min(num_workers_, num_blocks > 0 ? num_blocks - 1 : 0);
  // Clones are made on first use, so a call too short to spread (a
  // single block) never pays for them.
  while (clones_.size() < spawned) clones_.push_back(src_->clone());
  AcquisitionStats st;
  st.threads_used = static_cast<unsigned>(spawned) + 1;
  st.engine = src_->name();
  std::vector<std::thread> pool;
  // Runs on every exit, a throw from consume() or from the caller's own
  // acquire_block() included: the workers stop at their next claim.
  const auto stop_and_join = [&] {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    released.notify_all();
    for (std::thread& t : pool) t.join();
  };
  try {
    pool.reserve(spawned);
    for (std::size_t w = 0; w < spawned; ++w)
      pool.emplace_back([&worker, &s = *clones_[w]] { worker(s); });

    std::unique_lock<std::mutex> lock(mu);
    while (head < num_blocks && !worker_error) {
      const std::size_t pos = head % ring;
      std::size_t run = 0;
      while (head + run < num_blocks && pos + run < ring && done[pos + run])
        ++run;
      if (run > 0) {
        lock.unlock();
        const std::size_t lo = head * width;
        const std::size_t n = std::min((head + run) * width, count) - lo;
        const std::span<const AcquiredTrace> records(
            scratch_.data() + pos * width, n);
        for (const AcquiredTrace& a : records) {
          st.transitions += a.transitions;
          st.glitches += a.glitches;
          st.merged_commits += a.merged_commits;
        }
        consume(records, first_index + lo);
        lock.lock();
        std::fill_n(done.begin() + static_cast<std::ptrdiff_t>(pos), run, 0);
        head += run;
        released.notify_all();
      } else if (claimable()) {
        const std::size_t k = next_claim++;
        lock.unlock();
        fill_block(*src_, k);
        lock.lock();
        done[k % ring] = 1;
      } else {
        filled.wait(lock, [&] { return worker_error || done[pos]; });
      }
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
  stop_and_join();
  if (worker_error) std::rethrow_exception(worker_error);

  st.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  st.traces_per_s =
      st.wall_ms > 0.0 ? 1e3 * static_cast<double>(count) / st.wall_ms : 0.0;
  st.lane_occupancy = st.merged_commits > 0
                          ? static_cast<double>(st.transitions) /
                                static_cast<double>(st.merged_commits)
                          : 0.0;
  if (stats) *stats = std::move(st);
}

dpa::TraceSet WorkerPool::acquire(std::size_t num_traces, std::uint64_t seed,
                                  AcquisitionStats* stats) {
  dpa::TraceSet ts;
  std::vector<std::size_t> per_trace;
  per_trace.reserve(num_traces);
  // Bounded segments: the transient per-trace PowerTraces never coexist
  // with the whole SoA matrix — peak memory is one n×m matrix plus one
  // segment, not two full copies of the samples.
  acquire_segments(
      0, num_traces, seed, /*chunk=*/1024,
      [&](std::span<const AcquiredTrace> records, std::size_t) {
        for (const AcquiredTrace& a : records) {
          per_trace.push_back(a.transitions);
          // Span-based add: copies into the SoA matrix without stealing
          // the reusable slot buffers.
          ts.add(power::TraceView(a.trace), a.plaintext, a.ciphertext);
          if (ts.size() == 1) ts.reserve(num_traces);
        }
      },
      stats);
  if (stats) stats->per_trace_transitions = std::move(per_trace);
  return ts;
}

void WorkerPool::acquire_chunked(std::size_t num_traces, std::uint64_t seed,
                                 std::size_t chunk, const TraceSetFn& consume,
                                 AcquisitionStats* stats) {
  acquire_chunked_range(0, num_traces, seed, chunk, consume, stats);
}

void WorkerPool::acquire_chunked_range(std::size_t first_index,
                                       std::size_t count, std::uint64_t seed,
                                       std::size_t chunk,
                                       const TraceSetFn& consume,
                                       AcquisitionStats* stats) {
  // Runs start on block boundaries; each is copied out one source block
  // at a time, so chunk_buf_ never holds more than batch_width() rows.
  // Its footprint is then fixed by the source, not by how long a run
  // the workers happened to finish ahead of the consumer.
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);
  acquire_segments(
      first_index, count, seed, chunk,
      [&](std::span<const AcquiredTrace> records, std::size_t first) {
        for (std::size_t lo = 0; lo < records.size(); lo += width) {
          chunk_buf_.clear();
          for (const AcquiredTrace& a :
               records.subspan(lo, std::min(width, records.size() - lo)))
            chunk_buf_.add(power::TraceView(a.trace), a.plaintext,
                           a.ciphertext);
          consume(chunk_buf_, first + lo);
        }
      },
      stats);
}

}  // namespace qdi::campaign
