// TraceSource — the acquisition abstraction of the campaign API.
//
// An attack does not care where its power traces come from: the
// event-driven simulator of this reproduction, a cached acquisition on
// disk, or (in a lab) a real oscilloscope bench. A TraceSource answers
// exactly one question — "give me the power trace of acquisition i" —
// and the campaign layer handles batching, worker fan-out, and
// deterministic randomness on top of it.
//
// Determinism contract: every trace draws all of its randomness
// (stimulus, window jitter, measurement noise) from a private RNG stream
// keyed by (campaign seed, trace index), and SimTraceSource starts
// every trace from the post-reset state. Acquisition i is therefore
// bit-identical whatever thread acquired it and in whatever order — the
// property test_campaign asserts. The compiled and reference engines
// are additionally bit-identical to each other (test_compiled_sim).
//
// The hot path is allocation-free: workers acquire through
// acquire_into() into reused AcquiredTrace slots, the stimulus fills a
// reused buffer, the streaming power accumulator ping-pongs one sample
// buffer per worker, and a WorkerPool keeps the per-thread simulator
// clones (and their compiled-kernel epoch snapshots) alive across any
// number of acquire calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "qdi/dpa/trace_set.hpp"
#include "qdi/power/synth.hpp"
#include "qdi/sim/compiled_netlist.hpp"
#include "qdi/sim/compiled_simulator.hpp"
#include "qdi/sim/environment.hpp"
#include "qdi/sim/simulator.hpp"
#include "qdi/util/rng.hpp"

namespace qdi::campaign {

/// One acquisition request: trace `index` of a campaign rooted at `seed`.
struct TraceRequest {
  std::uint64_t seed = 1;
  std::size_t index = 0;
};

/// One acquired trace plus its side-channel metadata.
struct AcquiredTrace {
  power::PowerTrace trace;
  std::vector<std::uint8_t> plaintext;
  std::vector<std::uint8_t> ciphertext;
  std::size_t transitions = 0;  ///< net transitions in the cycle
  std::size_t glitches = 0;     ///< cancelled events (0 on hazard-free QDI)
  /// Engine commits of the block this record was acquired in, carried
  /// by the block's first record (0 on the others), so a sum over
  /// records counts every block once. A batch commit moves every lane
  /// that switches the same net at the same time; a scalar commit moves
  /// one trace, so a scalar record carries its own `transitions`.
  /// Sources that do not count commits leave it 0.
  std::size_t merged_commits = 0;
  /// Fault classification when the acquisition was a fault injection
  /// (campaign/fault_campaign.hpp); -1 for ordinary power acquisitions.
  int fault_class = -1;
};

/// Stimulus for one acquisition: the 1-of-N value per environment input
/// channel, plus the plaintext bytes recorded for the analysis side.
/// Randomness must come only from `rng` (the per-trace stream); `index`
/// allows deterministic exhaustive sweeps.
struct Stimulus {
  std::vector<int> values;
  std::vector<std::uint8_t> plaintext;
};

/// Fill-style stimulus callback: overwrite `out` completely (clear and
/// refill both vectors). The campaign layer reuses one Stimulus per
/// worker, so a well-behaved implementation allocates nothing once the
/// capacities have settled.
using StimulusFn =
    std::function<void(util::Rng& rng, std::size_t index, Stimulus& out)>;

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Acquire one trace into `out`, overwriting it completely (the
  /// campaign layer reuses one slot per request index, so implementations
  /// should clear-and-refill the buffers rather than reassign them —
  /// that is what keeps the hot loop allocation-free). Must be
  /// deterministic in `req` alone. A simple source can just do
  /// `out = ...` and forgo the buffer reuse.
  virtual void acquire_into(const TraceRequest& req, AcquiredTrace& out) = 0;

  /// Natural block size of this source: how many consecutive trace
  /// indices one acquire_block() call acquires at once. 1 for scalar
  /// sources; sim::kBatchLanes for the bit-parallel batch engine. The
  /// WorkerPool hands out work in blocks of this width.
  virtual std::size_t batch_width() const { return 1; }

  /// Acquire traces [first, first + count) of campaign `seed` into
  /// out[0 .. count). `count` is at most batch_width() (the final block
  /// of a range may be partial). Per-trace results must be bit-identical
  /// to acquire_into on the same indices — block partitioning is a
  /// scheduling choice, never an observable one. The default forwards to
  /// acquire_into per index.
  virtual void acquire_block(std::uint64_t seed, std::size_t first,
                             std::size_t count, AcquiredTrace* out) {
    for (std::size_t i = 0; i < count; ++i)
      acquire_into({seed, first + i}, out[i]);
  }

  /// Independent copy for a worker thread.
  virtual std::unique_ptr<TraceSource> clone() const = 0;

  virtual std::string name() const = 0;
};

struct AcquisitionStats {
  double wall_ms = 0.0;
  double traces_per_s = 0.0;
  std::size_t transitions = 0;  ///< summed over all traces
  std::size_t glitches = 0;     ///< summed over all traces
  /// Filled by WorkerPool::acquire only; the streaming entry points
  /// leave it empty (a per-trace vector would grow with the trace
  /// budget and break the fused campaign's bounded-memory contract).
  std::vector<std::size_t> per_trace_transitions;
  /// Threads that acquired: the caller plus the workers started, at
  /// most one per block of the call.
  unsigned threads_used = 1;
  /// name() of the source that acquired: "batch-sim" (the 64-lane
  /// kernel, the Campaign default), "sim-compiled", "sim" (reference
  /// interpreter), or a custom source's name.
  std::string engine;
  /// Engine commits summed per block (AcquiredTrace::merged_commits).
  std::size_t merged_commits = 0;
  /// Lanes a commit moved on average: transitions / merged_commits
  /// (64 = perfect lockstep, 1 on the scalar engines; 0 when the source
  /// counts no commits). Both totals are sums over the call's blocks,
  /// and the blocks are fixed by the range and the source's width, so
  /// the figure does not depend on the thread count.
  double lane_occupancy = 0.0;
};

/// Persistent acquisition worker set: `threads - 1` clones of a primary
/// source plus the scratch ring of result slots, created on first use
/// and reused across any number of acquire calls. This is what keeps
/// per-thread simulators (with their compiled netlist, epoch snapshot,
/// and scratch buffers) warm across batches instead of re-cloning per
/// call — the campaign layer owns one pool per run, benches own one per
/// timing loop. Each call starts its worker threads once and runs an
/// ordered pipeline: the workers acquire blocks of traces in index
/// order into the ring while the calling thread hands finished blocks
/// to the consumer in index order, and acquires blocks itself when none
/// is ready. A ring position is refilled only after the consumer has
/// released it, so acquisition overlaps analysis, at most `threads`
/// threads are runnable, and the feed order (hence every accumulator
/// result) is independent of the thread count. The ring holds
/// kRingBlocksPerThread source blocks per thread (fewer when `chunk`
/// asks for less): enough for every thread to acquire one block while
/// the consumer reads another, so its footprint follows the thread
/// count, not the trace budget.
///
/// Every entry point runs through acquire_segments — the one loop that
/// fans out, times, and counts; the others only assemble its records
/// into TraceSets.
class WorkerPool {
 public:
  /// Consumer of one acquired segment: `records[k]` is trace
  /// `first + k`, in index order. The records are the pool's reused
  /// ring slots, valid only for the duration of the call (the workers
  /// keep filling other slots meanwhile; these stay untouched until it
  /// returns).
  using SegmentFn = std::function<void(std::span<const AcquiredTrace> records,
                                       std::size_t first)>;
  using TraceSetFn =
      std::function<void(const dpa::TraceSet& segment, std::size_t first)>;

  /// Ring positions per pool thread, in source blocks. One block per
  /// thread leaves the calling thread nothing to acquire ahead into
  /// while it consumes, so it stalls the ring; two keep every thread
  /// busy.
  static constexpr std::size_t kRingBlocksPerThread = 2;

  /// `src` must outlive the pool. `threads` counts `src` itself.
  WorkerPool(TraceSource& src, unsigned threads);

  unsigned threads() const noexcept {
    return static_cast<unsigned>(num_workers_) + 1;
  }

  /// Point the pool at a different source, keeping the thread count and
  /// the per-slot scratch buffers (their capacity was paid for by the
  /// previous campaign). This is what lets a countermeasure sweep run
  /// every variant on one shared pool: each variant's netlist gets fresh
  /// per-thread clones, the allocation-heavy result slots persist.
  /// `src` must outlive the pool, the next rebind, or an unbind().
  void rebind(TraceSource& src);

  /// Drop the source pointer and the per-thread clones but keep the
  /// scratch slots. A SimTraceSource points into the netlist it was
  /// built over; when that netlist dies before the pool does (a sweep
  /// variant's instance is consumed by its CampaignResult), unbinding
  /// keeps the pool from holding dangling sources between variants.
  /// No acquire call is valid until the next rebind().
  void unbind() noexcept;

  /// The acquisition loop: traces [first_index, first_index + count) of
  /// campaign `seed`, acquired over the workers in blocks of the
  /// source's batch_width into a ring of R = min(ceil(min(chunk, count)
  /// / width), kRingBlocksPerThread * threads()) blocks, and handed to
  /// `consume` one segment at a time, in ascending, contiguous index
  /// order. Block k is not claimed before the consumer has released
  /// block k - R. A segment is at most the ring size and may be
  /// shorter: it is whatever run of in-order blocks is done when the
  /// consumer is free. Record values
  /// are bit-identical for any thread count, chunk size, or range
  /// partition (the determinism contract above). A throw from `consume`
  /// or from a source is rethrown once every worker has joined. `stats`
  /// counts every trace and times the whole call, consume() included;
  /// `threads_used` counts the threads started (never more than there
  /// are blocks); `engine` and `lane_occupancy` describe the source.
  void acquire_segments(std::size_t first_index, std::size_t count,
                        std::uint64_t seed, std::size_t chunk,
                        const SegmentFn& consume,
                        AcquisitionStats* stats = nullptr);

  /// Batched acquisition into a fresh TraceSet, assembled in index
  /// order; bit-identical for any thread count (determinism contract).
  dpa::TraceSet acquire(std::size_t num_traces, std::uint64_t seed,
                        AcquisitionStats* stats = nullptr);

  /// Chunked streaming acquisition — the O(1)-memory feed of the fused
  /// campaign. Delivers traces [first, first + segment.size()) per
  /// consume() call from one reused segment buffer (cleared, capacity
  /// kept); consumers must copy anything they keep. Each segment is one
  /// source block: batch_width() traces, fewer only for the last block
  /// of the range, so the segment sizes (and the buffer's footprint)
  /// do not depend on timing; `chunk` caps the ring, i.e. how far the
  /// workers may acquire ahead of the consumer (see acquire_segments).
  /// Trace values are bit-identical to acquire() for any thread count
  /// and chunk size.
  void acquire_chunked(std::size_t num_traces, std::uint64_t seed,
                       std::size_t chunk, const TraceSetFn& consume,
                       AcquisitionStats* stats = nullptr);

  /// Ranged form of acquire_chunked: stream traces [first, first + count)
  /// of campaign `seed` — the feed of one campaign shard, whose range
  /// does not start at 0. acquire_chunked(n, ...) is exactly
  /// acquire_chunked_range(0, n, ...).
  void acquire_chunked_range(std::size_t first_index, std::size_t count,
                             std::uint64_t seed, std::size_t chunk,
                             const TraceSetFn& consume,
                             AcquisitionStats* stats = nullptr);

 private:
  TraceSource* src_;
  std::size_t num_workers_ = 0;  ///< threads() - 1
  /// Worker clones of src_, made when a call first starts that many
  /// workers; rebind() and unbind() drop them.
  std::vector<std::unique_ptr<TraceSource>> clones_;
  /// The ring of reused result slots: slot buffers (samples, plaintext,
  /// ciphertext) retain capacity across segments and across acquire
  /// calls.
  std::vector<AcquiredTrace> scratch_;
  /// Reused segment of acquire_chunked, one source block long: clear()
  /// keeps the matrix and arena capacity, so repeated chunked
  /// acquisitions (the fused campaign's steady state, and every sweep
  /// step after the first) run without reallocating the segment.
  dpa::TraceSet chunk_buf_;
};

struct SimTraceSourceOptions {
  sim::DelayModel delays{};
  power::PowerModelParams power{};
  /// Acquisition-window start jitter in [0, start_jitter_ps): the
  /// attacker's missing-trigger problem on clockless circuits.
  double start_jitter_ps = 0.0;
  /// Execution engine. Compiled (this struct's default, the scalar
  /// kernel): the netlist is flattened once per source into a
  /// CompiledNetlist shared by all worker clones, power samples stream
  /// into the accumulator at commit time (no transition log), and after
  /// the first trace each epoch restores the post-reset snapshot
  /// instead of re-simulating reset. Reference: the construction-form
  /// interpreter with a post-hoc log walk. Batch: the 64-lane
  /// bit-parallel kernel — handled by BatchSimTraceSource, which
  /// make_sim_source builds; constructing a SimTraceSource with it
  /// throws. A Campaign sets Batch unless told otherwise
  /// (Campaign::engine), so a custom source() factory receives Batch by
  /// default. All engines produce bit-identical traces.
  sim::EngineKind engine = sim::EngineKind::Compiled;
  /// Reuse an existing compiled form instead of flattening the netlist
  /// again (benches and sweeps that build several sources over one
  /// victim). Must have been compiled from the SAME netlist with the
  /// SAME delay model — the source trusts it. Ignored by the reference
  /// engine.
  std::shared_ptr<const sim::CompiledNetlist> precompiled;
};

/// Compiled form a scalar simulation-backed source runs: `precompiled`
/// when given, else a fresh sim::compile(nl, delays), for
/// EngineKind::Compiled; nullptr for EngineKind::Reference.
std::shared_ptr<const sim::CompiledNetlist> compile_for_engine(
    sim::EngineKind engine, const netlist::Netlist& nl,
    const sim::DelayModel& delays,
    const std::shared_ptr<const sim::CompiledNetlist>& precompiled);

/// The one scalar engine factory of the campaign layer: the compiled
/// kernel over `compiled` when it is non-null (see compile_for_engine),
/// else the reference interpreter over `nl`. Every simulation-backed
/// source and each of its worker clones builds its engine here.
std::unique_ptr<sim::SimEngine> make_scalar_engine(
    const std::shared_ptr<const sim::CompiledNetlist>& compiled,
    const netlist::Netlist& nl, const sim::DelayModel& delays);

/// TraceSource backed by the event-driven simulator and the four-phase
/// handshake environment — the reproduction's oscilloscope bench.
class SimTraceSource final : public TraceSource {
 public:
  /// `nl` is shared by all clones and must outlive them; it must not be
  /// mutated during acquisition (the compiled engine snapshots it).
  SimTraceSource(const netlist::Netlist& nl, sim::EnvSpec env,
                 StimulusFn stimulus, SimTraceSourceOptions opt = {});

  // Non-copyable/movable: env_ holds a pointer into the engine, so a
  // default copy would drive the source object's simulator. Use clone().
  SimTraceSource(const SimTraceSource&) = delete;
  SimTraceSource& operator=(const SimTraceSource&) = delete;

  void acquire_into(const TraceRequest& req, AcquiredTrace& out) override;
  std::unique_ptr<TraceSource> clone() const override;
  std::string name() const override {
    return opt_.engine == sim::EngineKind::Compiled ? "sim-compiled" : "sim";
  }

 private:
  struct WorkerCloneTag {};
  SimTraceSource(const SimTraceSource& other, WorkerCloneTag);

  const netlist::Netlist* nl_;
  sim::EnvSpec spec_;
  StimulusFn stimulus_;
  SimTraceSourceOptions opt_;
  /// Execution form shared read-only by all worker clones (compiled
  /// engine only).
  std::shared_ptr<const sim::CompiledNetlist> compiled_;
  std::unique_ptr<sim::SimEngine> sim_;
  /// Kernel view of sim_ for the epoch-snapshot fast path (the only
  /// engine-specific capability); non-null iff compiled engine.
  sim::CompiledSimulator* csim_ = nullptr;
  sim::FourPhaseEnv env_;
  /// Per-worker scratch reused across trace epochs — all of it
  /// capacity-retaining, so the steady-state loop allocates nothing.
  power::StreamingAccumulator acc_;
  Stimulus stim_;
  sim::FourPhaseEnv::CycleResult cyc_;
  std::optional<sim::CompiledSimulator::Epoch> epoch_;  ///< post-reset snapshot
};

/// The simulation-backed trace source for `opt.engine` — the one place a
/// campaign picks its acquisition engine: a BatchSimTraceSource for
/// EngineKind::Batch, a SimTraceSource for the scalar engines.
std::unique_ptr<TraceSource> make_sim_source(const netlist::Netlist& nl,
                                             sim::EnvSpec env,
                                             StimulusFn stimulus,
                                             SimTraceSourceOptions opt = {});

}  // namespace qdi::campaign
