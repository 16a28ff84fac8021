// Private campaign-internal header (not installed): the attack
// accumulator pair behind both the fused in-process analysis driver
// (campaign.cpp's StreamingAnalysis) and the sharded runtime's
// ShardRunner/Coordinator (shard.cpp). Keeping probe rules (true-key
// rank, the single-bit MTD success test, outcome emission) in ONE place
// is what guarantees a sharded campaign and a fused campaign cannot
// drift in how they read the same running sums.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "qdi/campaign/attack.hpp"
#include "qdi/campaign/target.hpp"
#include "qdi/dpa/online.hpp"

namespace qdi::campaign::detail {

/// Resolve the Dpa bit list against the target's selection functions.
/// Throws std::invalid_argument on an out-of-range index.
std::vector<dpa::SelectionFn> resolve_bits(const Dpa& cfg,
                                           const TargetInstance& inst);

/// One OnlineCpa or OnlineDpa accumulator plus the probe/emission rules
/// of the campaign layer. `inst` must outlive the state (it holds the
/// selection metadata the probes rank against).
class AttackState {
 public:
  /// `attack` must hold Dpa or Cpa (the caller validates monostate out).
  AttackState(const AttackConfig& attack, const TargetInstance& inst);

  bool is_dpa() const noexcept { return dpa_.has_value(); }
  std::size_t count() const noexcept {
    return dpa_ ? dpa_->count() : cpa_->count();
  }
  bool mtd_enabled() const noexcept;

  /// Feed rows [lo, hi) of a segment (accumulation is trace-ordered;
  /// see OnlineCpa/OnlineDpa).
  void add_rows(const dpa::TraceSet& segment, std::size_t lo, std::size_t hi);

  /// True-key rank at the current prefix (the rank-trajectory probe).
  std::size_t rank_now() const;

  /// The MTD success test at the current prefix: DPA uses the paper's
  /// single-bit D-function (selection bit 0), CPA the windowed best
  /// correlation — exactly dpa::measurements_to_disclosure's rule.
  bool mtd_success_now() const;

  /// Final attack emission from the current sums. Fills everything
  /// except `mtd` and `wall_ms` (the caller owns the MTD grid and the
  /// clock).
  AttackOutcome outcome() const;

  /// Accumulator snapshot / restore (the shard checkpoint payload).
  /// restore() forwards dpa::StateError on malformed or mismatched
  /// buffers and leaves the state untouched.
  std::vector<std::uint8_t> serialize() const;
  void restore(std::span<const std::uint8_t> bytes);

  /// Fold a serialized partial state into this one: restore into a twin
  /// accumulator (same config + instance), then merge. Throws
  /// dpa::StateError on a bad buffer without disturbing this state.
  void merge_serialized(std::span<const std::uint8_t> bytes);

 private:
  const TargetInstance* inst_;
  AttackConfig cfg_;  ///< kept for building merge twins
  std::optional<Dpa> dpa_cfg_;
  std::optional<Cpa> cpa_cfg_;
  std::optional<dpa::OnlineDpa> dpa_;
  std::optional<dpa::OnlineCpa> cpa_;
};

}  // namespace qdi::campaign::detail
