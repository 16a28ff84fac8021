#include "qdi/campaign/trace_source.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
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
  out.glitches = sim_->glitch_count();
}

// ---- WorkerPool -------------------------------------------------------------

namespace {

unsigned clamp_threads(unsigned threads, std::size_t num_traces) {
  if (threads == 0) threads = 1;
  if (threads > num_traces)
    threads = static_cast<unsigned>(num_traces == 0 ? 1 : num_traces);
  return threads;
}

void finish_stats(AcquisitionStats& st, std::size_t num_traces,
                  std::chrono::steady_clock::time_point t0) {
  st.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  st.traces_per_s =
      st.wall_ms > 0.0 ? 1e3 * static_cast<double>(num_traces) / st.wall_ms
                       : 0.0;
}

}  // namespace

WorkerPool::WorkerPool(TraceSource& src, unsigned threads) : src_(&src) {
  if (threads == 0) threads = 1;
  worker_clones_ = threads - 1;
  clones_.reserve(worker_clones_);
  for (unsigned w = 1; w < threads; ++w) clones_.push_back(src.clone());
}

void WorkerPool::rebind(TraceSource& src) {
  clones_.clear();
  src_ = &src;
  for (std::size_t w = 0; w < worker_clones_; ++w)
    clones_.push_back(src.clone());
}

void WorkerPool::unbind() noexcept {
  clones_.clear();
  src_ = nullptr;
}

/// Acquire requests [lo, hi) into scratch_[0 .. hi-lo), fanned out over
/// the primary source plus the clones in blocks of the source's
/// batch_width (1 for scalar sources, 64 for the batch engine; the last
/// block of a range may be partial). Deterministic in (seed, index) per
/// the TraceSource contract, whatever the thread count or the block
/// partition.
void WorkerPool::acquire_range(std::size_t lo, std::size_t hi,
                               std::uint64_t seed) {
  const std::size_t count = hi - lo;
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);
  const std::size_t num_blocks = (count + width - 1) / width;
  if (clones_.empty()) {
    for (std::size_t b = 0; b < count; b += width)
      src_->acquire_block(seed, lo + b, std::min(width, count - b),
                          scratch_.data() + b);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  auto worker = [&](TraceSource& s) {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= num_blocks) return;
      const std::size_t b = k * width;
      try {
        s.acquire_block(seed, lo + b, std::min(width, count - b),
                        scratch_.data() + b);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
        next.store(num_blocks, std::memory_order_relaxed);  // drain
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(clones_.size());
  for (std::unique_ptr<TraceSource>& c : clones_)
    pool.emplace_back([&worker, &c] { worker(*c); });
  worker(*src_);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

dpa::TraceSet WorkerPool::acquire(std::size_t num_traces, std::uint64_t seed,
                                  AcquisitionStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();

  dpa::TraceSet ts;
  AcquisitionStats st;
  st.threads_used = clamp_threads(threads(), num_traces);
  st.per_trace_transitions.reserve(num_traces);

  // Acquire in bounded segments so the transient per-trace PowerTraces
  // never coexist with the whole SoA matrix — peak memory is one n×m
  // matrix plus one segment, not two full copies of the samples.
  constexpr std::size_t kSegment = 1024;
  if (scratch_.size() < std::min(kSegment, num_traces))
    scratch_.resize(std::min(kSegment, num_traces));
  for (std::size_t first = 0; first < num_traces; first += kSegment) {
    const std::size_t hi = std::min(first + kSegment, num_traces);
    acquire_range(first, hi, seed);
    for (std::size_t k = 0; k < hi - first; ++k) {
      const AcquiredTrace& a = scratch_[k];
      st.transitions += a.transitions;
      st.glitches += a.glitches;
      st.per_trace_transitions.push_back(a.transitions);
      // Span-based add: copies into the SoA matrix without stealing the
      // reusable slot buffers.
      ts.add(power::TraceView(a.trace), a.plaintext, a.ciphertext);
      if (ts.size() == 1) ts.reserve(num_traces);
    }
  }
  finish_stats(st, num_traces, t0);
  if (stats) *stats = std::move(st);
  return ts;
}

void WorkerPool::acquire_chunked(
    std::size_t num_traces, std::uint64_t seed, std::size_t chunk,
    const std::function<void(const dpa::TraceSet& segment, std::size_t first)>&
        consume,
    AcquisitionStats* stats) {
  acquire_chunked_range(0, num_traces, seed, chunk, consume, stats);
}

void WorkerPool::acquire_chunked_range(
    std::size_t first_index, std::size_t count, std::uint64_t seed,
    std::size_t chunk,
    const std::function<void(const dpa::TraceSet& segment, std::size_t first)>&
        consume,
    AcquisitionStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  if (chunk == 0) chunk = 1;
  const std::size_t end = first_index + count;

  AcquisitionStats st;
  st.threads_used = clamp_threads(threads(), count);
  // No per_trace_transitions here: a per-trace vector would grow with
  // the trace budget, defeating the O(chunk) memory contract. Aggregate
  // counters are still exact.

  if (scratch_.size() < std::min(chunk, count))
    scratch_.resize(std::min(chunk, count));
  dpa::TraceSet& segment = chunk_buf_;
  for (std::size_t first = first_index; first < end; first += chunk) {
    const std::size_t hi = std::min(first + chunk, end);
    acquire_range(first, hi, seed);
    segment.clear();
    for (std::size_t k = 0; k < hi - first; ++k) {
      const AcquiredTrace& a = scratch_[k];
      st.transitions += a.transitions;
      st.glitches += a.glitches;
      segment.add(power::TraceView(a.trace), a.plaintext, a.ciphertext);
    }
    consume(segment, first);
  }
  finish_stats(st, count, t0);
  if (stats) *stats = std::move(st);
}

void WorkerPool::acquire_each(
    std::size_t num_traces, std::uint64_t seed, std::size_t chunk,
    const std::function<void(std::size_t index, const AcquiredTrace& rec)>&
        consume,
    AcquisitionStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  if (chunk == 0) chunk = 1;

  AcquisitionStats st;
  st.threads_used = clamp_threads(threads(), num_traces);

  if (scratch_.size() < std::min(chunk, num_traces))
    scratch_.resize(std::min(chunk, num_traces));
  for (std::size_t first = 0; first < num_traces; first += chunk) {
    const std::size_t hi = std::min(first + chunk, num_traces);
    acquire_range(first, hi, seed);
    for (std::size_t k = 0; k < hi - first; ++k) {
      const AcquiredTrace& a = scratch_[k];
      st.transitions += a.transitions;
      st.glitches += a.glitches;
      consume(first + k, a);
    }
  }
  finish_stats(st, num_traces, t0);
  if (stats) *stats = std::move(st);
}

void WorkerPool::acquire_sharded_range(std::size_t first_index,
                                       std::size_t count, std::uint64_t seed,
                                       std::size_t block_traces,
                                       const std::vector<std::size_t>& extra_cuts,
                                       const ShardedIngest& consumer,
                                       AcquisitionStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  if (block_traces == 0) block_traces = 1;
  const std::size_t end = first_index + count;

  AcquisitionStats st;
  st.threads_used = clamp_threads(threads(), count);

  // Blocks are keyed by ABSOLUTE trace index — cut at global multiples
  // of block_traces plus the caller's extra cuts — so the partition
  // depends only on (range, width, cuts). A re-threaded or resumed run
  // re-derives the identical block set, which is what makes the
  // commit-side fold independent of the thread count.
  std::vector<std::size_t> cuts(extra_cuts);
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  {
    std::size_t lo = first_index;
    std::size_t ci = 0;
    while (lo < end) {
      std::size_t hi = std::min(end, (lo / block_traces + 1) * block_traces);
      while (ci < cuts.size() && cuts[ci] <= lo) ++ci;
      if (ci < cuts.size() && cuts[ci] < hi) hi = cuts[ci];
      blocks.emplace_back(lo, hi);
      lo = hi;
    }
  }

  if (sharded_scratch_.size() < threads()) sharded_scratch_.resize(threads());
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);

  // Acquire + assemble + ingest one block on worker `w`.
  auto run_block = [&](unsigned w, std::size_t k, dpa::TraceSet& seg,
                       std::size_t* transitions, std::size_t* glitches) {
    const std::size_t lo = blocks[k].first;
    const std::size_t cnt = blocks[k].second - lo;
    std::vector<AcquiredTrace>& slots = sharded_scratch_[w];
    if (slots.size() < cnt) slots.resize(cnt);
    TraceSource& s = (w == 0) ? *src_ : *clones_[w - 1];
    for (std::size_t b = 0; b < cnt; b += width)
      s.acquire_block(seed, lo + b, std::min(width, cnt - b),
                      slots.data() + b);
    seg.clear();
    for (std::size_t i = 0; i < cnt; ++i) {
      const AcquiredTrace& a = slots[i];
      *transitions += a.transitions;
      *glitches += a.glitches;
      seg.add(power::TraceView(a.trace), a.plaintext, a.ciphertext);
    }
    if (consumer.ingest) consumer.ingest(w, k, seg, lo);
  };

  if (clones_.empty() || blocks.size() <= 1) {
    // Single-worker form: same block partition, same ingest-then-commit
    // calls per block — bit-identical consumer observations, no threads.
    if (sharded_segments_.empty())
      sharded_segments_.push_back(std::make_unique<dpa::TraceSet>());
    dpa::TraceSet& seg = *sharded_segments_.front();
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      run_block(0, k, seg, &st.transitions, &st.glitches);
      if (consumer.commit) consumer.commit(k, seg, blocks[k].first);
    }
    finish_stats(st, count, t0);
    if (stats) *stats = std::move(st);
    return;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::size_t next = 0;      // next unclaimed block
  std::size_t frontier = 0;  // next block to commit
  bool committing = false;   // a worker is inside the commit chain
  std::exception_ptr first_error;
  std::vector<std::unique_ptr<dpa::TraceSet>> done(blocks.size());
  // Claim gate: fast workers may run at most a few blocks ahead of the
  // commit frontier, bounding live segments at O(threads). The frontier
  // block's owner is never gated (its claim already happened), so the
  // frontier always advances — no deadlock.
  const std::size_t max_inflight = 2 * static_cast<std::size_t>(threads()) + 2;

  auto worker = [&](unsigned w) {
    std::size_t my_transitions = 0;
    std::size_t my_glitches = 0;
    for (;;) {
      std::size_t k = 0;
      std::unique_ptr<dpa::TraceSet> seg;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return first_error != nullptr || next >= blocks.size() ||
                 next - frontier < max_inflight;
        });
        if (first_error != nullptr || next >= blocks.size()) break;
        k = next++;
        if (!sharded_segments_.empty()) {
          seg = std::move(sharded_segments_.back());
          sharded_segments_.pop_back();
        }
      }
      if (!seg) seg = std::make_unique<dpa::TraceSet>();
      try {
        run_block(w, k, *seg, &my_transitions, &my_glitches);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        cv.notify_all();
        break;
      }
      std::unique_lock<std::mutex> lock(mu);
      done[k] = std::move(seg);
      if (!committing) {
        // Drain the commit chain: everything contiguous from the
        // frontier, in ascending block order, outside the lock. The
        // `committing` flag keeps the chain single-threaded while other
        // workers keep claiming and ingesting.
        committing = true;
        while (first_error == nullptr && frontier < blocks.size() &&
               done[frontier]) {
          const std::size_t fk = frontier;
          std::unique_ptr<dpa::TraceSet> fs = std::move(done[fk]);
          lock.unlock();
          try {
            if (consumer.commit) consumer.commit(fk, *fs, blocks[fk].first);
          } catch (...) {
            lock.lock();
            if (!first_error) first_error = std::current_exception();
            break;
          }
          lock.lock();
          sharded_segments_.push_back(std::move(fs));
          ++frontier;
          cv.notify_all();
        }
        committing = false;
        cv.notify_all();
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    st.transitions += my_transitions;
    st.glitches += my_glitches;
  };

  std::vector<std::thread> pool;
  pool.reserve(clones_.size());
  for (unsigned w = 1; w <= static_cast<unsigned>(clones_.size()); ++w)
    pool.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);

  finish_stats(st, count, t0);
  if (stats) *stats = std::move(st);
}

// ---- one-shot wrappers ------------------------------------------------------

dpa::TraceSet acquire_batch(TraceSource& src, std::size_t num_traces,
                            std::uint64_t seed, unsigned threads,
                            AcquisitionStats* stats) {
  WorkerPool pool(src, clamp_threads(threads, num_traces));
  return pool.acquire(num_traces, seed, stats);
}

void acquire_chunked(
    TraceSource& src, std::size_t num_traces, std::uint64_t seed,
    unsigned threads, std::size_t chunk,
    const std::function<void(const dpa::TraceSet& segment, std::size_t first)>&
        consume,
    AcquisitionStats* stats) {
  WorkerPool pool(src, clamp_threads(threads, num_traces));
  pool.acquire_chunked(num_traces, seed, chunk, consume, stats);
}

}  // namespace qdi::campaign
