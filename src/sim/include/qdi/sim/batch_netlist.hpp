// BatchNetlist — the batch-compile step in front of sim::BatchSimulator.
//
// The 64-lane kernel shares one CompiledNetlist across all lanes and
// relies on two structural facts that scalar simulation never needed
// spelled out:
//
//   * every combinational cone between handshake latches levelizes —
//     i.e. the subgraph of non-Muller gates is acyclic. Muller
//     C-elements (the QDI latches) and environment-driven nets are the
//     cut points. A cone that cannot be levelized
//     (e.g. a cross-coupled NAND latch smuggled in as "combinational"
//     cells) would make word-parallel evaluation order-sensitive, so
//     batch compilation REFUSES it with an error naming the offending
//     cell and net rather than silently falling back to scalar runs;
//   * per-net slew is static: a net has exactly one driver, and the
//     per-cell slew depends only on the cell kind and its static output
//     load, so the batch kernel can look slew up per net instead of
//     carrying per-lane pending-slew state. Environment-driven nets use
//     slew 0, exactly like SimEngine::drive().
//
// A BatchNetlist is immutable after construction and shared read-only
// by all batch workers, like the CompiledNetlist it wraps.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "qdi/sim/compiled_netlist.hpp"

namespace qdi::sim {

class BatchNetlist {
 public:
  /// Validates and annotates `cn`. Throws std::invalid_argument (naming
  /// the cell and its output net) when a combinational cone cannot be
  /// levelized.
  explicit BatchNetlist(std::shared_ptr<const CompiledNetlist> cn);

  const CompiledNetlist& compiled() const noexcept { return *cn_; }
  const std::shared_ptr<const CompiledNetlist>& compiled_ptr() const noexcept {
    return cn_;
  }

  /// Static slew per net: 0 for environment-driven nets, the driver
  /// cell's precomputed slew otherwise.
  const std::vector<double>& net_slew_ps() const noexcept {
    return net_slew_ps_;
  }

 private:
  std::shared_ptr<const CompiledNetlist> cn_;
  std::vector<double> net_slew_ps_;
};

/// Compile `nl` for the batch kernel (netlist -> CompiledNetlist ->
/// BatchNetlist). The shared_ptr is what BatchSimTraceSource clones
/// hand to their per-worker kernels.
std::shared_ptr<const BatchNetlist> compile_batch(const netlist::Netlist& nl,
                                                  DelayModel model = {});

/// Wrap an already-compiled netlist (shares it instead of recompiling).
std::shared_ptr<const BatchNetlist> compile_batch(
    std::shared_ptr<const CompiledNetlist> cn);

}  // namespace qdi::sim
