#include "pml/sta/timing.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pml::sta {

using netlist::Cell;
using netlist::CellType;
using netlist::NetId;

TimingReport analyze(const netlist::Module& module,
                     const cells::CellLibrary& lib) {
  return analyze(module, lib, sim::levelize_shared(module));
}

TimingReport analyze(const netlist::Module& module,
                     const cells::CellLibrary& lib,
                     const std::shared_ptr<const sim::Levelization>& lv_ptr) {
  if (lv_ptr == nullptr) {
    throw std::invalid_argument("sta::analyze: null levelization");
  }
  TimingReport report;
  util::Arena scratch;
  analyze_into(report, module, lib, *lv_ptr, scratch);
  return report;
}

void analyze_into(TimingReport& out, const netlist::Module& module,
                  const cells::CellLibrary& lib, const sim::Levelization& lv,
                  util::Arena& scratch) {
  const auto& cells = module.cells();
  const std::size_t num_nets = module.num_nets();

  out.critical_path_ms = 0.0;
  out.max_frequency_hz = 0.0;
  out.logic_depth = 0;
  out.critical_path.clear();
  out.sink_description.clear();

  const double clk_to_q = lib.params(CellType::kDff).delay_ms;
  const double setup = lib.calibration().dff_setup_ms;

  double* const arrival = scratch.alloc<double>(num_nets);
  // Predecessor net on the longest path into each net; -1 for sources.
  std::int64_t* const pred = scratch.alloc<std::int64_t>(num_nets);
  std::int32_t* const via_cell = scratch.alloc<std::int32_t>(num_nets);
  std::fill(arrival, arrival + num_nets, 0.0);
  std::fill(pred, pred + num_nets, std::int64_t{-1});
  std::fill(via_cell, via_cell + num_nets, std::int32_t{-1});

  const double kf0 = lib.calibration().fanout_delay_factor;
  auto source_load = [&](netlist::NetId n) {
    const double sinks =
        static_cast<double>(std::max<std::size_t>(1, lv.fanout(n).size()));
    return 1.0 + kf0 * (sinks - 1.0);
  };
  for (std::size_t i = 0; i < lv.dffs.size(); ++i) {
    const NetId q = cells[lv.dffs[i]].out;
    arrival[q] = clk_to_q * source_load(q);
  }
  // Primary inputs arrive through an (implicit) input buffer whose drive
  // suffers the same fanout loading.
  const double buf_delay = lib.params(CellType::kBuf).delay_ms;
  for (const auto& port : module.input_ports()) {
    for (const NetId n : port.nets) {
      if (lv.fanout(n).size() > 1) {
        arrival[n] = buf_delay * source_load(n);
      }
    }
  }

  // Printed interconnect is resistive and cell drive is weak: loading a
  // net with many sinks slows it down markedly.  Model delay as
  // cell delay x (1 + k x (fanout - 1)) — this is why huge fully-parallel
  // designs clock far below small sequential ones in the paper.
  const double kf = lib.calibration().fanout_delay_factor;
  for (const std::uint32_t idx : lv.comb_order) {
    const Cell& c = cells[idx];
    const int arity = netlist::cell_num_inputs(c.type);
    double worst = 0.0;
    NetId worst_in = c.in[0];
    for (int k = 0; k < arity; ++k) {
      if (arrival[c.in[k]] >= worst) {
        worst = arrival[c.in[k]];
        worst_in = c.in[k];
      }
    }
    const double sinks = static_cast<double>(
        std::max<std::size_t>(1, lv.fanout(c.out).size()));
    const double load = 1.0 + kf * (sinks - 1.0);
    arrival[c.out] = worst + lib.params(c.type).delay_ms * load;
    pred[c.out] = static_cast<std::int64_t>(worst_in);
    via_cell[c.out] = static_cast<std::int32_t>(idx);
  }

  // Track the worst sink's *identity* here and render the description once
  // at the end — building a string per candidate sink would allocate.
  NetId worst_net = netlist::kInvalidNet;
  const netlist::Port* worst_port = nullptr;
  std::size_t worst_bit = 0;
  bool worst_is_dff = false;
  auto consider = [&](NetId n, double extra, const netlist::Port* port,
                      std::size_t bit, bool is_dff) {
    const double t = arrival[n] + extra;
    if (t > out.critical_path_ms) {
      out.critical_path_ms = t;
      worst_net = n;
      worst_port = port;
      worst_bit = bit;
      worst_is_dff = is_dff;
    }
  };
  for (const auto& port : module.output_ports()) {
    for (std::size_t b = 0; b < port.nets.size(); ++b) {
      consider(port.nets[b], 0.0, &port, b, false);
    }
  }
  for (const std::uint32_t idx : lv.dffs) {
    consider(cells[idx].in[0], setup, nullptr, 0, true);
  }

  if (out.critical_path_ms <= 0.0) {
    // Fully constant design; report a nominal single-gate period.
    out.critical_path_ms = lib.params(CellType::kBuf).delay_ms;
    out.sink_description = "(constant design)";
  } else if (worst_is_dff) {
    out.sink_description = "DFF D pin (setup)";
  } else if (worst_port != nullptr) {
    out.sink_description.append("output '");
    out.sink_description.append(worst_port->name);
    out.sink_description.append("' bit ");
    // Small-string append: bit indices stay within SSO capacity.
    out.sink_description.append(std::to_string(worst_bit));
  }
  out.max_frequency_hz = 1000.0 / out.critical_path_ms;

  // Walk predecessors to extract the critical path (sink -> source), then
  // reverse-copy into the reused output vector.
  PathStep* const rev = scratch.alloc<PathStep>(num_nets);
  std::size_t rev_len = 0;
  std::int64_t n = (worst_net == netlist::kInvalidNet)
                       ? -1
                       : static_cast<std::int64_t>(worst_net);
  while (n >= 0) {
    PathStep step;
    step.net = static_cast<NetId>(n);
    step.arrival_ms = arrival[static_cast<std::size_t>(n)];
    const std::int32_t ci = via_cell[static_cast<std::size_t>(n)];
    if (ci >= 0) step.through = cells[static_cast<std::size_t>(ci)].type;
    rev[rev_len++] = step;
    if (ci < 0) break;
    n = pred[static_cast<std::size_t>(n)];
  }
  for (std::size_t i = rev_len; i > 0; --i) {
    out.critical_path.push_back(rev[i - 1]);
  }
  // Depth counts gates traversed; the path also contains the source net.
  int depth = 0;
  for (const auto& step : out.critical_path) {
    if (via_cell[step.net] >= 0) ++depth;
  }
  out.logic_depth = depth;
}

}  // namespace pml::sta
