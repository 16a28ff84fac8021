// WorkerPool contract: the ordered acquisition pipeline behind every
// campaign entry point.
//
// - Segments arrive in ascending, contiguous index order, none longer
//   than the ring, and together cover exactly [first, first + count).
//   The ring is R = min(ceil(min(chunk, count) / width),
//   kRingBlocksPerThread * threads) source blocks, and no block k is
//   claimed before the consumer has released block k - R.
// - Records are bit-identical to a 1-thread acquire, for scalar and
//   64-lane batch sources alike.
// - No ring slot is refilled while the consumer still reads it.
// - A throw from the consumer or from a source is rethrown once every
//   worker has stopped, and the pool stays usable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "qdi/qdi.hpp"

namespace qc = qdi::campaign;
namespace qd = qdi::dpa;
namespace qs = qdi::sim;
namespace qu = qdi::util;

namespace {

constexpr std::size_t kSamples = 8;

/// Counters shared by a synthetic source and all of its clones.
struct Probe {
  std::atomic<int> in_flight{0};     ///< acquire_into calls running now
  std::atomic<long> calls{0};        ///< acquire_into calls started
  std::atomic<long> fail_index{-1};  ///< throw once when this index is hit
  /// Ring check, when ring_traces > 0: the call's first index, the ring
  /// in traces (R whole blocks), and the end of the consumer's finished
  /// segments. Releasing a block follows its consume() returning, so a
  /// block claimed too early sees consumed_end short of its bound.
  std::size_t first = 0;
  std::size_t ring_traces = 0;
  std::atomic<std::size_t> consumed_end{0};
  std::atomic<int> early_claims{0};
};

/// Trace i of campaign s is a pure function of (s, i): the pool's
/// scheduling is all these tests exercise, without simulator cost.
class SyntheticSource final : public qc::TraceSource {
 public:
  SyntheticSource(std::size_t width, std::shared_ptr<Probe> probe)
      : width_(width), probe_(std::move(probe)) {}

  void acquire_into(const qc::TraceRequest& req, qc::AcquiredTrace& out) override {
    probe_->calls.fetch_add(1);
    probe_->in_flight.fetch_add(1);
    struct Leave {
      Probe& p;
      ~Leave() { p.in_flight.fetch_sub(1); }
    } leave{*probe_};
    const std::size_t block_lo =
        req.index - (req.index - probe_->first) % width_;
    if (probe_->ring_traces > 0 &&
        block_lo >= probe_->first + probe_->ring_traces &&
        probe_->consumed_end.load() <
            block_lo - probe_->ring_traces + width_)
      probe_->early_claims.fetch_add(1);
    long expected = static_cast<long>(req.index);
    if (probe_->fail_index.compare_exchange_strong(expected, -1))
      throw std::runtime_error("source fault at " + std::to_string(req.index));
    qu::Rng rng = qu::split_stream(req.seed, req.index);
    out.trace.reset(0.0, 1.0, kSamples);
    for (std::size_t j = 0; j < kSamples; ++j)
      out.trace[j] = static_cast<double>(rng.next() >> 11);
    out.plaintext.assign(1, static_cast<std::uint8_t>(rng.next()));
    out.ciphertext.assign(1, static_cast<std::uint8_t>(req.index));
    out.transitions = req.index % 17;
    out.glitches = 0;
  }
  std::size_t batch_width() const override { return width_; }
  std::unique_ptr<qc::TraceSource> clone() const override {
    return std::make_unique<SyntheticSource>(width_, probe_);
  }
  std::string name() const override { return "synthetic"; }

 private:
  std::size_t width_;
  std::shared_ptr<Probe> probe_;
};

std::uint64_t fingerprint(const qc::AcquiredTrace& a) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const double s : a.trace.samples()) mix(std::bit_cast<std::uint64_t>(s));
  for (const std::uint8_t b : a.plaintext) mix(b);
  for (const std::uint8_t b : a.ciphertext) mix(b);
  mix(a.transitions);
  return h;
}

std::uint64_t fingerprint(std::span<const qc::AcquiredTrace> records) {
  std::uint64_t h = 0;
  for (const qc::AcquiredTrace& a : records) h = h * 31 + fingerprint(a);
  return h;
}

/// Fingerprint of trace `index` of campaign `seed`, acquired on its own.
std::uint64_t reference(std::uint64_t seed, std::size_t index) {
  SyntheticSource src(1, std::make_shared<Probe>());
  qc::AcquiredTrace a;
  src.acquire_into({seed, index}, a);
  return fingerprint(a);
}

void expect_same(const qd::TraceSet& a, const qd::TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_samples(), b.num_samples());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.plaintext(i)[0], b.plaintext(i)[0]) << "trace " << i;
    ASSERT_EQ(a.ciphertext(i)[0], b.ciphertext(i)[0]) << "trace " << i;
    for (std::size_t j = 0; j < a.num_samples(); ++j)
      ASSERT_EQ(a.trace(i)[j], b.trace(i)[j])
          << "trace " << i << " sample " << j;
  }
}

}  // namespace

// ---- segment contract ------------------------------------------------------

TEST(WorkerPool, SegmentsAreOrderedContiguousAndBoundedByTheRing) {
  constexpr std::uint64_t kSeed = 21;
  for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      auto probe = std::make_shared<Probe>();
      SyntheticSource src(width, probe);
      qc::WorkerPool pool(src, threads);
      for (const std::size_t chunk : {1, 7, 64, 100, 1024}) {
        for (const std::size_t count : {1, 5, 70, 131, 300}) {
          const std::size_t first = 3;
          const std::size_t ring_blocks =
              std::min((std::min(chunk, count) + width - 1) / width,
                       qc::WorkerPool::kRingBlocksPerThread * threads);
          probe->first = first;
          probe->ring_traces = ring_blocks * width;
          probe->consumed_end.store(first);
          probe->early_claims.store(0);
          std::size_t next = first;
          std::size_t transitions = 0;
          std::size_t segments = 0;
          qc::AcquisitionStats st;
          pool.acquire_segments(
              first, count, kSeed, chunk,
              [&](std::span<const qc::AcquiredTrace> records, std::size_t lo) {
                ASSERT_EQ(lo, next);
                ASSERT_GE(records.size(), 1u);
                ASSERT_LE(records.size(), probe->ring_traces);
                for (std::size_t k = 0; k < records.size(); ++k) {
                  ASSERT_EQ(fingerprint(records[k]), reference(kSeed, lo + k))
                      << "index " << lo + k;
                  transitions += records[k].transitions;
                }
                next += records.size();
                // Now and then hold the segment so the workers run into
                // the ring's bound.
                if (++segments % 4 == 0)
                  std::this_thread::sleep_for(std::chrono::microseconds(200));
                probe->consumed_end.store(next);
              },
              &st);
          SCOPED_TRACE(testing::Message() << "width " << width << " threads "
                                          << threads << " chunk " << chunk
                                          << " count " << count);
          EXPECT_EQ(next, first + count);
          EXPECT_EQ(probe->early_claims.load(), 0)
              << "a block was claimed before block k - R was released";
          EXPECT_EQ(st.transitions, transitions);
          EXPECT_EQ(st.engine, "synthetic");
          const std::size_t blocks = (count + width - 1) / width;
          EXPECT_EQ(st.threads_used, std::min<std::size_t>(threads, blocks));
          EXPECT_EQ(probe->in_flight.load(), 0);
        }
      }
      probe->ring_traces = 0;
    }
  }
}

TEST(WorkerPool, ChunkedSegmentsAreOneSourceBlockEach) {
  // The chunked feed's segment sizes (and so its buffer) are fixed by
  // the source, whatever run of blocks the pipeline delivers.
  for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
    for (const unsigned threads : {1u, 4u}) {
      SyntheticSource src(width, std::make_shared<Probe>());
      qc::WorkerPool pool(src, threads);
      for (const std::size_t chunk : {7, 100, 1024}) {
        const std::size_t first = 5, count = 201;
        std::size_t next = first;
        pool.acquire_chunked_range(
            first, count, 3, chunk,
            [&](const qd::TraceSet& seg, std::size_t lo) {
              ASSERT_EQ(lo, next);
              ASSERT_EQ(seg.size(), std::min(width, first + count - lo))
                  << "width " << width << " threads " << threads
                  << " chunk " << chunk;
              next += seg.size();
            });
        EXPECT_EQ(next, first + count);
      }
    }
  }
}

TEST(WorkerPool, EmptyRangeConsumesNothing) {
  SyntheticSource src(64, std::make_shared<Probe>());
  qc::WorkerPool pool(src, 4);
  qc::AcquisitionStats st;
  pool.acquire_segments(
      0, 0, 1, 16,
      [](std::span<const qc::AcquiredTrace>, std::size_t) {
        FAIL() << "no segment expected";
      },
      &st);
  EXPECT_EQ(st.threads_used, 1u);
}

// ---- bit identity ----------------------------------------------------------

TEST(WorkerPool, SyntheticRecordsMatchOneThreadAcquire) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
    SyntheticSource one_src(width, std::make_shared<Probe>());
    const qd::TraceSet ref = qc::WorkerPool(one_src, 1).acquire(201, 9);
    SyntheticSource src(width, std::make_shared<Probe>());
    qc::WorkerPool pool(src, 4);
    expect_same(ref, pool.acquire(201, 9));
    qd::TraceSet chunked;
    pool.acquire_chunked(201, 9, 50, [&](const qd::TraceSet& seg, std::size_t first) {
      ASSERT_EQ(first, chunked.size());
      for (std::size_t k = 0; k < seg.size(); ++k)
        chunked.add(seg.trace(k), seg.plaintext(k), seg.ciphertext(k));
    });
    expect_same(ref, chunked);
  }
}

TEST(WorkerPool, SimulatedRecordsMatchOneThreadAcquireOnEveryEngine) {
  const qc::TargetInstance inst = qc::des_sbox_slice().build(0x2b);
  for (const qs::EngineKind engine :
       {qs::EngineKind::Compiled, qs::EngineKind::Batch}) {
    qc::SimTraceSourceOptions opt;
    opt.engine = engine;
    const std::unique_ptr<qc::TraceSource> one_src =
        qc::make_sim_source(inst.nl, inst.env, inst.stimulus, opt);
    const std::size_t n = engine == qs::EngineKind::Batch ? 150 : 40;
    const qd::TraceSet ref = qc::WorkerPool(*one_src, 1).acquire(n, 5);

    const std::unique_ptr<qc::TraceSource> src =
        qc::make_sim_source(inst.nl, inst.env, inst.stimulus, opt);
    qc::WorkerPool pool(*src, 4);
    qd::TraceSet chunked;
    pool.acquire_chunked(n, 5, /*chunk=*/70,
                         [&](const qd::TraceSet& seg, std::size_t first) {
                           ASSERT_EQ(first, chunked.size());
                           for (std::size_t k = 0; k < seg.size(); ++k)
                             chunked.add(seg.trace(k), seg.plaintext(k),
                                         seg.ciphertext(k));
                         });
    expect_same(ref, chunked);
  }
}

// ---- slot reuse ------------------------------------------------------------

TEST(WorkerPool, NoSlotIsRefilledWhileTheConsumerReadsIt) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
    SyntheticSource src(width, std::make_shared<Probe>());
    qc::WorkerPool pool(src, 4);
    const std::size_t chunk = width == 1 ? 8 : 128;
    std::size_t segments = 0;
    pool.acquire_segments(
        0, 12 * chunk, 4, chunk,
        [&](std::span<const qc::AcquiredTrace> records, std::size_t) {
          const std::uint64_t on_entry = fingerprint(records);
          // Long enough for the workers to fill every free slot.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          EXPECT_EQ(fingerprint(records), on_entry);
          ++segments;
        });
    EXPECT_GE(segments, 6u);
  }
}

// ---- failures --------------------------------------------------------------

TEST(WorkerPool, ConsumerThrowIsRethrownAndThePoolStaysUsable) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
    for (const unsigned threads : {1u, 4u}) {
      auto probe = std::make_shared<Probe>();
      SyntheticSource src(width, probe);
      qc::WorkerPool pool(src, threads);
      const qd::TraceSet ref = pool.acquire(300, 7);
      EXPECT_THROW(
          pool.acquire_segments(
              0, 300, 7, 64,
              [](std::span<const qc::AcquiredTrace> records, std::size_t lo) {
                if (lo + records.size() > 100)
                  throw std::runtime_error("consumer fault");
              }),
          std::runtime_error);
      // Every worker has stopped: nothing is running, nothing starts.
      EXPECT_EQ(probe->in_flight.load(), 0);
      const long calls = probe->calls.load();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_EQ(probe->calls.load(), calls);
      expect_same(ref, pool.acquire(300, 7));
    }
  }
}

TEST(WorkerPool, SourceThrowIsRethrownAndThePoolStaysUsable) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{64}}) {
    for (const unsigned threads : {1u, 4u}) {
      for (const long fail_at : {0L, 150L, 299L}) {
        auto probe = std::make_shared<Probe>();
        SyntheticSource src(width, probe);
        qc::WorkerPool pool(src, threads);
        const qd::TraceSet ref = pool.acquire(300, 7);
        probe->fail_index.store(fail_at);
        std::size_t consumed = 0;
        try {
          pool.acquire_segments(
              0, 300, 7, 64,
              [&](std::span<const qc::AcquiredTrace> records, std::size_t) {
                consumed += records.size();
              });
          ADD_FAILURE() << "expected a throw";
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()),
                    "source fault at " + std::to_string(fail_at));
        }
        // Nothing at or past the faulty block reached the consumer.
        EXPECT_LE(consumed, static_cast<std::size_t>(fail_at));
        EXPECT_EQ(probe->in_flight.load(), 0);
        const long calls = probe->calls.load();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(probe->calls.load(), calls);
        expect_same(ref, pool.acquire(300, 7));
      }
    }
  }
}
