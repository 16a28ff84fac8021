// BatchAccumulator — the 64-lane form of StreamingAccumulator.
//
// The batch kernel commits one merged (t, net) event for up to 64 lanes
// at once; this sink bins each lane's triangular charge pulse straight
// into that lane's destination trace (the caller's result slot), so a
// worker holds no 64-row staging matrix and no trace is copied out.
// Bit-identity with the scalar accumulator is the whole point, and it
// falls out of three facts:
//
//   * per-net charge scale is static: q = weight · C_total(net) · Vdd
//     and scale = q / dt depend only on the net and the edge direction,
//     so both are precomputed per net with the exact operation order of
//     transition_charge_fc() / on_transition();
//   * per-net slew is static (see BatchNetlist), so the pulse shape —
//     and hence the telescoped triangle-CDF boundary values — is shared
//     by every lane of a merged commit. With a shared window start
//     (jitter 0) the per-bin fractions are computed ONCE and re-used by
//     all live lanes; with jitter each lane replays the scalar binning
//     against its own window;
//   * a lane's pulses arrive in that lane's scalar commit order (the
//     canonical (t, net) pop order), so each row's floating-point
//     accumulation order matches the scalar trace exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qdi/power/synth.hpp"
#include "qdi/sim/batch_simulator.hpp"

namespace qdi::power {

class BatchAccumulator final : public sim::BatchPowerSink {
 public:
  /// `cap_ff_per_net` is CompiledNetlist::cap_ff; the per-net scales are
  /// tabulated here, once per worker.
  BatchAccumulator(PowerModelParams params,
                   std::span<const double> cap_ff_per_net);

  const PowerModelParams& params() const noexcept { return params_; }

  /// Open per-lane windows [t0_ps[l], t0_ps[l] + window_ps) for the
  /// lanes of `mask`, binning into `dst[l]`: each is reset to an
  /// all-zero trace of its lane's window (capacity kept). All windows
  /// share the sample count ceil(window_ps / dt); their starts may
  /// differ (acquisition jitter). The traces must stay alive and
  /// unresized until finish_lane.
  void begin_windows(const double* t0_ps, std::uint64_t mask,
                     double window_ps, PowerTrace* const* dst);

  void on_batch_transition(double t_ps, std::uint32_t net,
                           std::uint64_t live, std::uint64_t rising,
                           double slew_ps) override;

  /// Scale lane `lane`'s trace to µA in place and add per-sample
  /// Gaussian noise from `noise` — the per-lane twin of
  /// StreamingAccumulator::finish_into.
  void finish_lane(std::size_t lane, util::Rng* noise = nullptr);

 private:
  PowerModelParams params_;
  std::vector<double> scale_rise_;  ///< per net: q_rise / dt (0 skips)
  std::vector<double> scale_fall_;  ///< per net: q_fall / dt
  double* rows_[sim::kBatchLanes] = {};  ///< per lane: its dst samples
  /// Shared addend table of the aligned path: scale * frac per bin,
  /// built once per edge direction and replayed by every live lane.
  std::vector<double> frac_;
  double t0_[sim::kBatchLanes] = {};
  double t_end_[sim::kBatchLanes] = {};
  // Touched-bin range per lane: activity usually covers a fraction of
  // the window, so finish_lane scales only [j_min, j_max).
  std::size_t j_min_[sim::kBatchLanes] = {};
  std::size_t j_max_[sim::kBatchLanes] = {};
  std::size_t n_ = 0;
  bool aligned_ = true;  ///< all open windows share t0 (jitter == 0)
};

}  // namespace qdi::power
