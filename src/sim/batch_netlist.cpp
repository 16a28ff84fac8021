#include "qdi/sim/batch_netlist.hpp"

#include <stdexcept>
#include <string>

#include "qdi/netlist/cell_kind.hpp"

namespace qdi::sim {

using netlist::CellKind;
using netlist::kNoNet;

namespace {

bool combinational(CellKind k) noexcept {
  return !netlist::is_muller(k) && !netlist::is_pseudo(k);
}

}  // namespace

BatchNetlist::BatchNetlist(std::shared_ptr<const CompiledNetlist> cn)
    : cn_(std::move(cn)) {
  const CompiledNetlist& c = *cn_;
  const std::uint32_t num_cells = c.num_cells();
  const std::uint32_t num_nets = c.num_nets();

  // One driver per net (add_cell enforces it); kNoCell-equivalent is
  // encoded as num_cells.
  std::vector<std::uint32_t> driver(num_nets, num_cells);
  for (std::uint32_t cell = 0; cell < num_cells; ++cell)
    if (c.output[cell] != kNoNet) driver[c.output[cell]] = cell;

  net_slew_ps_.assign(num_nets, 0.0);
  for (std::uint32_t net = 0; net < num_nets; ++net)
    if (!c.driven_by_input[net] && driver[net] != num_cells)
      net_slew_ps_[net] = c.slew_ps[driver[net]];

  // Kahn's algorithm over the combinational subgraph: a cell left
  // unprocessed sits on a cycle. Edges run between combinational cells
  // only: Muller latches, environment-driven nets, and undriven nets
  // all count as cut points.
  std::vector<std::uint32_t> indegree(num_cells, 0);
  std::vector<std::uint32_t> worklist;
  std::size_t comb_cells = 0;
  for (std::uint32_t cell = 0; cell < num_cells; ++cell) {
    if (!combinational(c.kind[cell])) continue;
    ++comb_cells;
    std::uint32_t deg = 0;
    for (std::uint32_t i = c.fanin_offset[cell]; i < c.fanin_offset[cell + 1];
         ++i) {
      const std::uint32_t d = driver[c.fanin_net[i]];
      if (d != num_cells && combinational(c.kind[d])) ++deg;
    }
    indegree[cell] = deg;
    if (deg == 0) worklist.push_back(cell);
  }

  std::size_t processed = 0;
  while (!worklist.empty()) {
    const std::uint32_t cell = worklist.back();
    worklist.pop_back();
    ++processed;
    const std::uint32_t out = c.output[cell];
    if (out == kNoNet) continue;
    for (std::uint32_t i = c.fanout_offset[out]; i < c.fanout_offset[out + 1];
         ++i) {
      const std::uint32_t sink = c.fanout_cell[i];
      if (combinational(c.kind[sink]) && --indegree[sink] == 0)
        worklist.push_back(sink);
    }
  }

  if (processed != comb_cells) {
    // Name the lowest-id cell stuck on the cycle — deterministic, and
    // the source netlist still carries the human-readable names.
    for (std::uint32_t cell = 0; cell < num_cells; ++cell) {
      if (!combinational(c.kind[cell]) || indegree[cell] == 0) continue;
      const netlist::Cell& src = c.source().cell(cell);
      const std::string net_name = src.output != kNoNet
                                       ? c.source().net(src.output).name
                                       : std::string("<none>");
      throw std::invalid_argument(
          "BatchNetlist: combinational cone cannot be levelized — cell '" +
          src.name + "' (net '" + net_name +
          "') sits on a combinational cycle; the batch engine needs "
          "Muller-latch cut points between cones (use the compiled or "
          "reference engine for this netlist)");
    }
  }
}

std::shared_ptr<const BatchNetlist> compile_batch(const netlist::Netlist& nl,
                                                  DelayModel model) {
  return std::make_shared<const BatchNetlist>(compile(nl, model));
}

std::shared_ptr<const BatchNetlist> compile_batch(
    std::shared_ptr<const CompiledNetlist> cn) {
  return std::make_shared<const BatchNetlist>(std::move(cn));
}

}  // namespace qdi::sim
