// TimeWheel — the event queue of both production simulation kernels
// (CompiledSimulator and BatchSimulator): a two-level calendar queue.
//
// Keys bucket by their tick, floor(t_ps / width). The width is 4x the
// smallest gate delay, a measured sweet spot: coarser ticks batch more
// keys per refill (fewer scans and sorts), and a key scheduled into the
// tick currently being served (delay < width, common at this width) is
// inserted into the sorted ready batch. The wheel has enough buckets
// (64..4096, a power of two) to cover the delay range, i.e. how far
// ahead of `now` gate activity can reach, so only the environment's
// phase-gap and period-alignment jumps reach the far-list min-heap,
// whose keys migrate back as the wheel turns. An occupancy bitmap lets
// the refill skip empty ticks with find-first-set instead of a bucket
// walk. push/pop are O(1) amortized, against the reference engine's
// O(log n) priority queue.
//
// Pop order is exactly the `Earlier` order; tests/test_time_wheel.cpp
// drives the wheel against a std::priority_queue, and the kernels'
// equivalence tests hold it to the reference engine's commit sequence.
//
// Requirements: Key has a `double t_ps` member (>= 0); Earlier is a
// strict weak order that sorts smaller t_ps first. Keys Earlier cannot
// tell apart may all be queued and pop adjacently when they share a
// batch.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qdi::sim {

template <typename Key, typename Earlier>
class TimeWheel {
 public:
  /// Bucket geometry from the netlist's gate-delay range.
  TimeWheel(double min_delay_ps, double max_delay_ps) {
    double width = 4.0 * min_delay_ps;
    if (!(width > 0.0)) width = 1.0;
    inv_bucket_width_ = 1.0 / width;
    const auto span =
        static_cast<std::uint64_t>(max_delay_ps * inv_bucket_width_) + 2;
    num_buckets_ = std::clamp<std::uint64_t>(std::bit_ceil(span), 64, 4096);
    bucket_mask_ = num_buckets_ - 1;
    buckets_.resize(num_buckets_);
    occupied_.resize(num_buckets_ / 64);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint64_t num_buckets() const noexcept { return num_buckets_; }

  /// Keys the wheel's buffers have room for: its memory footprint in
  /// units of sizeof(Key).
  std::size_t reserved_keys() const noexcept {
    std::size_t n = ready_.capacity() + overflow_.capacity();
    for (const std::vector<Key>& b : buckets_) n += b.capacity();
    return n;
  }

  void push(const Key& k) {
    ++size_;
    const std::uint64_t tick = tick_of(k.t_ps);
    if (size_ == 1) {
      // Queue was empty: re-anchor the wheel on this key.
      cur_tick_ = tick;
      ready_.clear();
      ready_pos_ = 0;
    } else if (tick < cur_tick_) {
      // Only the kernels' drive() calls behind `now` while the loop is
      // idle get here (commits always schedule at t >= now, whose tick
      // is the one being served). Re-anchor; multi-lap bucket residents
      // stay correct because extraction filters by exact tick.
      spill_ready();
      cur_tick_ = tick;
    }
    if (ready_pos_ < ready_.size() && tick == cur_tick_) {
      // Insertion into the tick currently being served: keep the
      // unserved remainder sorted.
      ready_.insert(
          std::upper_bound(
              ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_),
              ready_.end(), k, Earlier{}),
          k);
      return;
    }
    if (tick - cur_tick_ < num_buckets_) {
      bucket_insert(k);
    } else {
      overflow_.push_back(k);
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
  }

  /// Remove and return the earliest key. The queue must not be empty.
  Key pop() {
    --size_;
    if (ready_pos_ >= ready_.size()) refill_ready();
    return ready_[ready_pos_++];
  }

  /// The next key of the batch being served, or nullptr once the batch
  /// is exhausted. Never refills, so it is O(1) and sees only keys of
  /// the current tick.
  const Key* peek_batch() const noexcept {
    return ready_pos_ < ready_.size() ? &ready_[ready_pos_] : nullptr;
  }

  void clear() {
    if (wheel_count_ > 0)
      for (std::vector<Key>& b : buckets_) b.clear();
    std::fill(occupied_.begin(), occupied_.end(), std::uint64_t{0});
    wheel_count_ = 0;
    ready_.clear();
    ready_pos_ = 0;
    overflow_.clear();
    cur_tick_ = 0;
    size_ = 0;
  }

  /// Drop every queued key matching `pred` in place; returns how many.
  /// The order of the remaining keys is unchanged.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    std::size_t removed = 0;
    for (std::uint64_t bi = 0; bi < num_buckets_; ++bi) {
      std::vector<Key>& b = buckets_[bi];
      if (b.empty()) continue;
      const auto it = std::remove_if(b.begin(), b.end(), pred);
      const auto n = static_cast<std::size_t>(b.end() - it);
      b.erase(it, b.end());
      removed += n;
      wheel_count_ -= n;
      if (b.empty()) clear_occupied(bi);
    }
    {
      const auto it = std::remove_if(overflow_.begin(), overflow_.end(), pred);
      removed += static_cast<std::size_t>(overflow_.end() - it);
      overflow_.erase(it, overflow_.end());
      std::make_heap(overflow_.begin(), overflow_.end(), Later{});
    }
    // The unserved ready remainder is sorted; remove_if keeps its order.
    const auto it = std::remove_if(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_), ready_.end(),
        pred);
    removed += static_cast<std::size_t>(ready_.end() - it);
    ready_.erase(it, ready_.end());
    size_ -= removed;
    return removed;
  }

 private:
  // Far-list heap order: std heaps keep the greatest element in front,
  // so ordering by "later" puts the earliest key there.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return Earlier{}(b, a);
    }
  };

  std::uint64_t tick_of(double t_ps) const noexcept {
    return static_cast<std::uint64_t>(t_ps * inv_bucket_width_);
  }
  void set_occupied(std::uint64_t b) noexcept {
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
  void clear_occupied(std::uint64_t b) noexcept {
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }

  void bucket_insert(const Key& k) {
    const std::uint64_t b = tick_of(k.t_ps) & bucket_mask_;
    if (buckets_[b].empty()) set_occupied(b);
    buckets_[b].push_back(k);
    ++wheel_count_;
  }

  /// Push the unserved remainder of the ready batch back into the wheel
  /// (cold path: only before re-anchoring the wheel backwards).
  void spill_ready() {
    for (std::size_t i = ready_pos_; i < ready_.size(); ++i)
      bucket_insert(ready_[i]);
    ready_.clear();
    ready_pos_ = 0;
  }

  /// Next occupied bucket index scanning one full wrap from
  /// `start_bucket`; num_buckets_ when the wheel is empty.
  std::uint64_t find_next_occupied(std::uint64_t start_bucket) const noexcept {
    const std::size_t words = occupied_.size();
    std::size_t w = start_bucket >> 6;
    std::uint64_t word =
        occupied_[w] & (~std::uint64_t{0} << (start_bucket & 63));
    for (std::size_t i = 0; i < words; ++i) {
      if (word != 0)
        return (static_cast<std::uint64_t>(w) << 6) +
               static_cast<std::uint64_t>(std::countr_zero(word));
      w = w + 1 == words ? 0 : w + 1;
      word = occupied_[w];
    }
    // Wrapped fully: only the skipped low bits of the start word remain.
    word = occupied_[start_bucket >> 6] &
           ~(~std::uint64_t{0} << (start_bucket & 63));
    if (word != 0)
      return ((start_bucket >> 6) << 6) +
             static_cast<std::uint64_t>(std::countr_zero(word));
    return num_buckets_;
  }

  void sort_ready() {
    // Batches are typically a handful of keys: insertion sort beats the
    // introsort dispatch there, and both are exact on the Earlier order.
    if (ready_.size() <= 16) {
      for (std::size_t i = 1; i < ready_.size(); ++i) {
        const Key k = ready_[i];
        std::size_t j = i;
        for (; j > 0 && Earlier{}(k, ready_[j - 1]); --j)
          ready_[j] = ready_[j - 1];
        ready_[j] = k;
      }
    } else {
      std::sort(ready_.begin(), ready_.end(), Earlier{});
    }
  }

  /// Common-case refill: the next occupied bucket holds exactly one
  /// tick's keys (true in all normal operation — multi-lap residents
  /// require a backward re-anchor), so the whole bucket is copied into
  /// the ready batch. Returns false without extracting anything on the
  /// cold cases.
  ///
  /// A copy, not a swap: ready_ keeps every key served in its tick
  /// until the next refill, popped ones included, so keys scheduled into
  /// the tick being served (delay < width) grow it to the busiest
  /// tick's whole event count — thousands of keys on a 64-lane batch
  /// kernel whose lanes have drifted apart. A swap would hand that
  /// capacity to a bucket, and over time to every bucket (MBs per
  /// worker). Copying keeps the large capacity in ready_ alone and each
  /// bucket at its own peak of queued keys, with no reallocation once
  /// those peaks are reached; the copy is cheap next to the sort.
  bool fast_refill() {
    const std::uint64_t s = cur_tick_ & bucket_mask_;
    const std::uint64_t b = find_next_occupied(s);
    if (b == num_buckets_) return false;  // wheel empty
    const std::uint64_t tick = cur_tick_ + ((b - s) & bucket_mask_);
    std::vector<Key>& bucket = buckets_[b];
    for (const Key& k : bucket)
      if (tick_of(k.t_ps) != tick) return false;  // multi-lap: cold path
    ready_.assign(bucket.begin(), bucket.end());
    bucket.clear();
    clear_occupied(b);
    wheel_count_ -= ready_.size();
    cur_tick_ = tick;
    sort_ready();
    return true;
  }

  /// Exact-tick rotation scan — correct in every state the wheel can
  /// reach, at a bucket walk's cost. Only runs when fast_refill declined.
  bool cold_refill() {
    for (std::uint64_t step = 0; step < num_buckets_; ++step) {
      const std::uint64_t tick = cur_tick_ + step;
      std::vector<Key>& b = buckets_[tick & bucket_mask_];
      if (b.empty()) continue;
      for (std::size_t i = 0; i < b.size();) {
        if (tick_of(b[i].t_ps) == tick) {
          ready_.push_back(b[i]);
          b[i] = b.back();
          b.pop_back();
        } else {
          ++i;  // a later lap of this bucket
        }
      }
      if (b.empty()) clear_occupied(tick & bucket_mask_);
      if (!ready_.empty()) {
        wheel_count_ -= ready_.size();
        cur_tick_ = tick;
        sort_ready();
        return true;
      }
    }
    return false;
  }

  // Invariant behind every refill: no queued key has a tick below
  // cur_tick_, and every far-list key left after migration lies at least
  // one rotation ahead of it.
  void refill_ready() {
    ready_.clear();
    ready_pos_ = 0;
    for (;;) {
      if (wheel_count_ == 0) {
        // Everything queued sits in the far-list: jump the wheel straight
        // to its earliest tick instead of scanning empty buckets.
        cur_tick_ = tick_of(overflow_.front().t_ps);
      }
      // Migrate far-list keys that fell inside the horizon as the wheel
      // turned.
      while (!overflow_.empty() &&
             tick_of(overflow_.front().t_ps) < cur_tick_ + num_buckets_) {
        std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
        const Key k = overflow_.back();
        overflow_.pop_back();
        bucket_insert(k);
      }
      if (fast_refill()) return;
      if (cold_refill()) return;
      if (wheel_count_ > 0) {
        // Stranded beyond one rotation (possible only after a backward
        // re-anchor): jump to the earliest resident, of the buckets or
        // of the far-list. Cold path.
        std::uint64_t min_tick =
            overflow_.empty() ? ~std::uint64_t{0}
                              : tick_of(overflow_.front().t_ps);
        for (const std::vector<Key>& b : buckets_)
          for (const Key& k : b) min_tick = std::min(min_tick, tick_of(k.t_ps));
        cur_tick_ = min_tick;
      }
      // else: loop re-anchors on the far-list and migrates.
    }
  }

  // buckets_[tick & bucket_mask_] holds the keys of absolute tick `tick`
  // (and, after a backward re-anchor, possibly of later laps —
  // extraction checks the exact tick and copies the whole bucket in the
  // common single-lap case). ready_ is the sorted batch of the tick
  // being served, from ready_pos_ on; overflow_ is the far-list heap.
  std::vector<std::vector<Key>> buckets_;
  std::vector<std::uint64_t> occupied_;
  std::vector<Key> ready_;
  std::size_t ready_pos_ = 0;
  std::vector<Key> overflow_;
  std::uint64_t cur_tick_ = 0;
  std::uint64_t num_buckets_ = 0;
  std::uint64_t bucket_mask_ = 0;
  double inv_bucket_width_ = 1.0;
  std::size_t wheel_count_ = 0;  // keys currently in buckets_
  std::size_t size_ = 0;         // all queued keys
};

}  // namespace qdi::sim
