// Sampled current trace containers. A PowerTrace is the discrete-time
// power signal S_ij of the paper's DPA formalization (section IV): sample
// j of acquisition i. Units: time in picoseconds, current in microamperes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace qdi::power {

class PowerTrace;

/// Non-owning read view of one sampled trace: the geometry of a
/// PowerTrace over borrowed storage. Rows of a SampleMatrix (and hence
/// of a dpa::TraceSet) are handed out as TraceViews; a PowerTrace
/// converts implicitly, so analysis code written against TraceView
/// accepts both.
class TraceView {
 public:
  TraceView() = default;
  TraceView(double t0_ps, double dt_ps, std::span<const double> samples) noexcept
      : t0_(t0_ps), dt_(dt_ps), samples_(samples) {}
  TraceView(const PowerTrace& t) noexcept;  // NOLINT: implicit by design

  double t0_ps() const noexcept { return t0_; }
  double dt_ps() const noexcept { return dt_; }
  std::size_t size() const noexcept { return samples_.size(); }
  double operator[](std::size_t j) const { return samples_[j]; }
  std::span<const double> samples() const noexcept { return samples_; }

  /// Time at the center of sample bin j.
  double time_of(std::size_t j) const noexcept {
    return t0_ + (static_cast<double>(j) + 0.5) * dt_;
  }

  /// Total charge (µA·ps = fC) under the trace.
  double total_charge_fc() const noexcept;

 private:
  double t0_ = 0.0;
  double dt_ = 1.0;
  std::span<const double> samples_;
};

class PowerTrace {
 public:
  PowerTrace() = default;
  PowerTrace(double t0_ps, double dt_ps, std::size_t num_samples)
      : t0_(t0_ps), dt_(dt_ps), samples_(num_samples, 0.0) {}

  /// Re-initialize in place to an all-zero trace of the given geometry.
  /// The sample buffer's capacity is retained — the acquisition hot loop
  /// reuses one trace per worker with zero steady-state allocation.
  void reset(double t0_ps, double dt_ps, std::size_t num_samples) {
    t0_ = t0_ps;
    dt_ = dt_ps;
    samples_.assign(num_samples, 0.0);
  }

  double t0_ps() const noexcept { return t0_; }
  double dt_ps() const noexcept { return dt_; }
  std::size_t size() const noexcept { return samples_.size(); }

  double& operator[](std::size_t j) { return samples_[j]; }
  double operator[](std::size_t j) const { return samples_[j]; }

  std::span<const double> samples() const noexcept { return samples_; }
  std::span<double> samples() noexcept { return samples_; }

  /// Time at the center of sample bin j.
  double time_of(std::size_t j) const noexcept {
    return t0_ + (static_cast<double>(j) + 0.5) * dt_;
  }

  /// Total charge (µA·ps = fC) under the trace.
  double total_charge_fc() const noexcept;

  /// In-place addition of another trace with identical geometry.
  PowerTrace& operator+=(const PowerTrace& other);
  PowerTrace& operator-=(const PowerTrace& other);
  PowerTrace& operator*=(double k) noexcept;

 private:
  double t0_ = 0.0;
  double dt_ = 1.0;
  std::vector<double> samples_;
};

}  // namespace qdi::power
