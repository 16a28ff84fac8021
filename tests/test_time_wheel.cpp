// TimeWheel, the calendar queue under both production kernels, driven
// directly against a std::priority_queue oracle. Pop order must match
// the oracle exactly for both key types the kernels use: the scalar
// (t, net, seq) event, unique per push, and the batch kernel's merged
// (t, net) key, which may be queued twice. The kernels reach the cold
// paths (far-list migration, backward re-anchor, multi-lap residents,
// the stranded-resident scan) only by accident, so these tests aim at
// them on purpose.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "qdi/sim/time_wheel.hpp"
#include "qdi/util/rng.hpp"

namespace qs = qdi::sim;
namespace qu = qdi::util;

namespace {

struct ScalarKey {
  double t_ps;
  std::uint64_t seq;
  std::uint32_t net;
  static ScalarKey make(double t, std::uint32_t net, std::uint64_t seq) {
    return ScalarKey{t, seq, net};
  }
};
struct ScalarEarlier {
  bool operator()(const ScalarKey& a, const ScalarKey& b) const noexcept {
    if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
    if (a.net != b.net) return a.net < b.net;
    return a.seq < b.seq;
  }
};

struct MergedKey {
  double t_ps;
  std::uint32_t net;
  static MergedKey make(double t, std::uint32_t net, std::uint64_t) {
    return MergedKey{t, net};
  }
};
struct MergedEarlier {
  bool operator()(const MergedKey& a, const MergedKey& b) const noexcept {
    if (a.t_ps != b.t_ps) return a.t_ps < b.t_ps;
    return a.net < b.net;
  }
};

/// A wheel and its oracle, fed the same operations; every pop is
/// checked against the oracle's.
template <typename Key, typename Earlier>
class Checked {
 public:
  Checked(double min_delay_ps, double max_delay_ps)
      : wheel_(min_delay_ps, max_delay_ps) {}

  std::uint64_t num_buckets() const { return wheel_.num_buckets(); }
  std::size_t size() const { return oracle_.size(); }
  double now() const { return now_; }

  void push(double t, std::uint32_t net) {
    const Key k = Key::make(t, net, next_seq_++);
    wheel_.push(k);
    oracle_.push(k);
    ASSERT_EQ(wheel_.size(), oracle_.size());
  }

  void pop() {
    ASSERT_FALSE(wheel_.empty());
    const Key got = wheel_.pop();
    const Key want = oracle_.top();
    oracle_.pop();
    ASSERT_TRUE(!Earlier{}(got, want) && !Earlier{}(want, got))
        << "pop #" << pops_ << ": wheel gave t=" << got.t_ps
        << " net=" << got.net << ", oracle t=" << want.t_ps
        << " net=" << want.net;
    ASSERT_EQ(wheel_.size(), oracle_.size());
    now_ = got.t_ps;
    ++pops_;
  }

  void drain() {
    while (!oracle_.empty() && !::testing::Test::HasFatalFailure()) pop();
    EXPECT_TRUE(wheel_.empty());
  }

  template <typename Pred>
  void remove_if(Pred pred) {
    std::vector<Key> keep;
    std::size_t dropped = 0;
    for (; !oracle_.empty(); oracle_.pop()) {
      if (pred(oracle_.top()))
        ++dropped;
      else
        keep.push_back(oracle_.top());
    }
    for (const Key& k : keep) oracle_.push(k);
    EXPECT_EQ(wheel_.remove_if(pred), dropped);
    ASSERT_EQ(wheel_.size(), oracle_.size());
  }

  void clear() {
    wheel_.clear();
    oracle_ = {};
    now_ = 0.0;
    EXPECT_TRUE(wheel_.empty());
  }

 private:
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return Earlier{}(b, a);
    }
  };
  qs::TimeWheel<Key, Earlier> wheel_;
  std::priority_queue<Key, std::vector<Key>, Later> oracle_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t pops_ = 0;
  double now_ = 0.0;
};

struct Geometry {
  double min_delay_ps;
  double max_delay_ps;
  std::uint64_t buckets;  // expected wheel size
};

// 4x-min-delay buckets covering max delay, rounded up to a power of two
// and clamped to [64, 4096].
const Geometry kGeometries[] = {
    {10.0, 30.0, 64},      // narrow delay range: the 64-bucket floor
    {1.0, 1000.0, 256},    // 1000 / 4 + 2 = 252 -> 256
    {0.5, 10000.0, 4096},  // 10000 / 2 + 2 = 5002 -> the 4096 ceiling
    {0.0, 50.0, 64},       // zero min delay falls back to 1 ps buckets
};

double width_of(const Geometry& g) {
  return g.min_delay_ps > 0.0 ? 4.0 * g.min_delay_ps : 1.0;
}

/// Random interleaved push/pop in the shape of a simulation: fanout at
/// the serve point and within the delay range, far jumps beyond one
/// rotation, and pushes behind the serve point; with remove_if and
/// clear() mid-stream and idle (drained) phases in between.
template <typename Key, typename Earlier>
void fuzz(const Geometry& g, std::uint64_t seed) {
  Checked<Key, Earlier> q(g.min_delay_ps, g.max_delay_ps);
  ASSERT_EQ(q.num_buckets(), g.buckets);
  const double width = width_of(g);
  const double rotation = width * static_cast<double>(g.buckets);
  qu::Rng rng(seed);
  // Quarter-picosecond grid and 8 nets, so time and (t, net) ties are
  // frequent.
  const auto grid = [](double t) {
    return static_cast<double>(static_cast<std::uint64_t>(t * 4.0)) / 4.0;
  };
  for (int step = 0; step < 20000 && !::testing::Test::HasFatalFailure();
       ++step) {
    const std::uint64_t op = rng.below(100);
    const auto net = static_cast<std::uint32_t>(rng.below(8));
    const double now = q.now();
    if (op < 20) {  // same tick as the serve point: in-batch insertion
      q.push(grid(now + rng.uniform(0.0, width)), net);
    } else if (op < 38) {  // ordinary gate delay
      q.push(grid(now + rng.uniform(0.0, g.max_delay_ps + width)), net);
    } else if (op < 42) {  // beyond one rotation: the far-list
      q.push(grid(now + rng.uniform(rotation, 4.0 * rotation)), net);
    } else if (op < 45) {  // behind the serve point: backward re-anchor
      q.push(grid(rng.uniform(0.0, now + 1.0)), net);
    } else if (op < 46) {  // exact duplicate time of the serve point
      q.push(now, net);
    } else if (op < 90) {
      if (q.size() > 0) q.pop();
    } else if (op < 91) {
      const std::uint32_t victim = net;
      q.remove_if([victim](const Key& k) { return k.net == victim; });
    } else if (op < 92) {
      if (rng.below(4) == 0) q.clear();
    } else if (op < 93) {
      // Idle phase: drain, then a burst of pushes in random time order
      // spanning several rotations, as a testbench driving inputs
      // behind and ahead of each other between runs.
      q.drain();
      const double base = q.now();
      const std::uint64_t burst = 1 + rng.below(12);
      for (std::uint64_t i = 0; i < burst; ++i)
        q.push(grid(base + rng.uniform(0.0, 3.0 * rotation)),
               static_cast<std::uint32_t>(rng.below(8)));
    }
  }
  q.drain();
}

TEST(TimeWheel, ScalarKeysMatchPriorityQueueOracle) {
  for (const Geometry& g : kGeometries)
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "buckets " << g.buckets << " seed " << seed);
      fuzz<ScalarKey, ScalarEarlier>(g, seed);
      if (HasFatalFailure()) return;
    }
}

TEST(TimeWheel, MergedKeysMatchPriorityQueueOracle) {
  for (const Geometry& g : kGeometries)
    for (std::uint64_t seed = 101; seed <= 104; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "buckets " << g.buckets << " seed " << seed);
      fuzz<MergedKey, MergedEarlier>(g, seed);
      if (HasFatalFailure()) return;
    }
}

TEST(TimeWheel, StrandedResidentsYieldToEarlierFarListKeys) {
  // 64 buckets of 40 ps. W anchors the wheel at tick 200; X re-anchors
  // it back to tick 0, stranding W more than one rotation ahead; O lies
  // beyond the new horizon too and goes to the far-list although it is
  // earlier than W. After X pops, the stranded-resident scan must jump
  // to O's tick, not W's.
  Checked<ScalarKey, ScalarEarlier> q(10.0, 30.0);
  ASSERT_EQ(q.num_buckets(), 64u);
  q.push(200 * 40.0, 0);  // W
  q.push(0.0, 1);         // X
  q.push(100 * 40.0, 2);  // O
  q.drain();
}

TEST(TimeWheel, MultiLapResidentsShareABucket) {
  // Idle pushes in descending time order whose ticks are congruent
  // modulo the wheel size: every push re-anchors backwards and all of
  // them land in one bucket, one lap apart.
  Checked<MergedKey, MergedEarlier> q(10.0, 30.0);
  for (int lap = 5; lap >= 0; --lap) q.push((3 + 64 * lap) * 40.0 + 1.0, 0);
  q.push(3 * 40.0 + 2.0, 1);  // a second key in the first lap's tick
  q.drain();
}

TEST(TimeWheel, InsertionIntoTheTickBeingServed) {
  Checked<ScalarKey, ScalarEarlier> q(10.0, 30.0);  // 40 ps ticks
  for (std::uint32_t net = 0; net < 6; ++net) q.push(10.0 + net, net);
  q.pop();
  q.pop();
  // Before, between and after the unserved remainder, all in the same
  // tick, plus a (t, net) tie broken by seq.
  q.push(12.0, 0);
  q.push(13.5, 7);
  q.push(39.0, 3);
  q.push(15.0, 5);
  q.drain();
}

TEST(TimeWheel, ABusyTickDoesNotLendItsCapacityToEveryBucket) {
  // Every tick serves a long chain of keys scheduled into itself (delay
  // below the tick width) ahead of a key still waiting in it, as lanes
  // of the batch kernel that drift apart do; the ready batch grows to
  // the chain's length. Over four laps of the wheel that capacity must
  // stay with the ready batch instead of reaching every bucket: only
  // two keys are ever queued ahead.
  qs::TimeWheel<MergedKey, MergedEarlier> w(10.0, 30.0);  // 40 ps ticks
  ASSERT_EQ(w.num_buckets(), 64u);
  constexpr std::size_t kChain = 1000;
  const auto queue_tick = [&w](int tick) {
    w.push({40.0 * tick + 1.0, 0});   // head
    w.push({40.0 * tick + 39.0, 0});  // tail, served after the chain
  };
  queue_tick(0);
  double last = 0.0;
  for (int tick = 0; tick < 4 * 64; ++tick) {
    queue_tick(tick + 1);
    MergedKey k = w.pop();
    for (std::size_t i = 0; i < kChain; ++i) {
      w.push({k.t_ps + 0.01, static_cast<std::uint32_t>(i + 1)});
      k = w.pop();
      ASSERT_GT(k.t_ps, last);
      last = k.t_ps;
    }
    k = w.pop();
    ASSERT_EQ(k.t_ps, 40.0 * tick + 39.0);
    last = k.t_ps;
  }
  EXPECT_EQ(w.size(), 2u);
  EXPECT_LT(w.reserved_keys(), 4 * kChain);
}

TEST(TimeWheel, ReusableAfterClear) {
  Checked<ScalarKey, ScalarEarlier> q(1.0, 1000.0);
  for (int i = 0; i < 300; ++i)
    q.push(5000.0 + 37.0 * i, static_cast<std::uint32_t>(i % 5));
  for (int i = 0; i < 100; ++i) q.pop();
  q.clear();
  // A fresh stream far behind the old serve point.
  for (int i = 0; i < 300; ++i)
    q.push(3.0 * (300 - i), static_cast<std::uint32_t>(i % 3));
  q.drain();
}

}  // namespace
