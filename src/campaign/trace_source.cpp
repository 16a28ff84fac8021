#include "qdi/campaign/trace_source.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
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

/// Traces are acquired into scratch_ `chunk` at a time, fanned out over
/// the primary source plus the clones in blocks of the source's
/// batch_width (1 for scalar sources, 64 for the batch engine; the last
/// block of a segment may be partial). Deterministic in (seed, index)
/// per the TraceSource contract, whatever the thread count or the block
/// partition; the join before consume() is the in-order barrier.
void WorkerPool::acquire_segments(std::size_t first_index, std::size_t count,
                                  std::uint64_t seed, std::size_t chunk,
                                  const SegmentFn& consume,
                                  AcquisitionStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  if (chunk == 0) chunk = 1;
  const std::size_t end = first_index + count;
  const std::size_t width = std::max<std::size_t>(src_->batch_width(), 1);

  AcquisitionStats st;
  st.threads_used = clamp_threads(threads(), count);
  if (scratch_.size() < std::min(chunk, count))
    scratch_.resize(std::min(chunk, count));

  for (std::size_t lo = first_index; lo < end; lo += chunk) {
    const std::size_t n = std::min(chunk, end - lo);
    const std::size_t num_blocks = (n + width - 1) / width;
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr first_error;
    auto worker = [&](TraceSource& s) {
      for (;;) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= num_blocks) return;
        const std::size_t b = k * width;
        try {
          s.acquire_block(seed, lo + b, std::min(width, n - b),
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

    const std::span<const AcquiredTrace> records(scratch_.data(), n);
    for (const AcquiredTrace& a : records) {
      st.transitions += a.transitions;
      st.glitches += a.glitches;
    }
    consume(records, lo);
  }

  st.wall_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  st.traces_per_s =
      st.wall_ms > 0.0 ? 1e3 * static_cast<double>(count) / st.wall_ms : 0.0;
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
  acquire_segments(
      first_index, count, seed, chunk,
      [&](std::span<const AcquiredTrace> records, std::size_t first) {
        chunk_buf_.clear();
        for (const AcquiredTrace& a : records)
          chunk_buf_.add(power::TraceView(a.trace), a.plaintext, a.ciphertext);
        consume(chunk_buf_, first);
      },
      stats);
}

}  // namespace qdi::campaign
