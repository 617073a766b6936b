#include "pml/power/power.hpp"

#include <algorithm>
#include <stdexcept>

#include "pml/sim/levelize.hpp"

namespace pml::power {

using netlist::Cell;
using netlist::CellType;

double area_cm2(const netlist::ModuleStats& stats,
                const cells::CellLibrary& lib) {
  double mm2 = 0.0;
  for (int t = 0; t < netlist::kNumCellTypes; ++t) {
    mm2 += static_cast<double>(stats.counts_by_type[t]) *
           lib.params(static_cast<CellType>(t)).area_mm2;
  }
  return mm2 * lib.calibration().routing_area_factor / 100.0;
}

double area_cm2(const netlist::Module& module, const cells::CellLibrary& lib) {
  return area_cm2(module.stats(), lib);
}

double static_power_mw(const netlist::ModuleStats& stats,
                       const cells::CellLibrary& lib) {
  double uw = 0.0;
  for (int t = 0; t < netlist::kNumCellTypes; ++t) {
    uw += static_cast<double>(stats.counts_by_type[t]) *
          lib.params(static_cast<CellType>(t)).static_power_uw;
  }
  uw += static_cast<double>(stats.num_dffs) *
        lib.calibration().clock_tree_power_uw_per_dff;
  return uw / 1000.0;
}

double static_power_mw(const netlist::Module& module,
                       const cells::CellLibrary& lib) {
  return static_power_mw(module.stats(), lib);
}

namespace {

/// Fanout load factor shared by estimate() and switching_energy_nj() so
/// the cost model prices transitions exactly as the power report does.
double fanout_load(const cells::Calibration& cal, const sim::Levelization& lv,
                   netlist::NetId net) {
  const double fanout = static_cast<double>(
      lv.fanout(net).empty() ? 1 : lv.fanout(net).size());
  return 1.0 + cal.fanout_energy_factor * (fanout - 1.0);
}

}  // namespace

double switching_energy_nj(const netlist::Module& module,
                           const cells::CellLibrary& lib,
                           const sim::ActivityStats& activity,
                           const sim::Levelization& lv) {
  if (activity.net_toggles.size() < module.num_nets()) {
    throw std::invalid_argument(
        "power::switching_energy_nj: activity/module mismatch");
  }
  const auto& cal = lib.calibration();
  double nj = 0.0;
  for (const Cell& c : module.cells()) {
    const std::uint64_t toggles = activity.net_toggles[c.out];
    if (toggles == 0) continue;
    nj += static_cast<double>(toggles) * lib.params(c.type).switch_energy_nj *
          fanout_load(cal, lv, c.out);
  }
  nj += static_cast<double>(activity.dff_clock_events) *
        cal.dff_clock_energy_nj;
  return nj;
}

PowerReport estimate(const netlist::Module& module,
                     const cells::CellLibrary& lib,
                     const sim::ActivityStats& activity,
                     std::size_t inferences, std::size_t cycles_per_inference,
                     double period_ms) {
  return estimate(module, lib, activity, inferences, cycles_per_inference,
                  period_ms, sim::levelize_shared(module));
}

PowerReport estimate(const netlist::Module& module,
                     const cells::CellLibrary& lib,
                     const sim::ActivityStats& activity,
                     std::size_t inferences, std::size_t cycles_per_inference,
                     double period_ms,
                     const std::shared_ptr<const sim::Levelization>& lv_ptr) {
  if (lv_ptr == nullptr) {
    throw std::invalid_argument("power::estimate: null levelization");
  }
  PowerReport rep;
  estimate_into(rep, module, lib, activity, inferences, cycles_per_inference,
                period_ms, *lv_ptr, module.stats());
  return rep;
}

void estimate_into(PowerReport& out, const netlist::Module& module,
                   const cells::CellLibrary& lib,
                   const sim::ActivityStats& activity, std::size_t inferences,
                   std::size_t cycles_per_inference, double period_ms,
                   const sim::Levelization& lv,
                   const netlist::ModuleStats& stats) {
  if (inferences == 0 || cycles_per_inference == 0 || period_ms <= 0.0) {
    throw std::invalid_argument("power::estimate: bad workload parameters");
  }
  if (activity.net_toggles.size() < module.num_nets()) {
    throw std::invalid_argument("power::estimate: activity/module mismatch");
  }
  const auto& cal = lib.calibration();
  const auto& cells_vec = module.cells();

  PowerReport& rep = out;
  rep.groups.resize(module.group_names().size());
  for (std::size_t g = 0; g < rep.groups.size(); ++g) {
    GroupReport& grp = rep.groups[g];
    grp.name = module.group_names()[g];
    grp.area_cm2 = 0.0;
    grp.static_mw = 0.0;
    grp.dynamic_mw = 0.0;
    grp.glitch_mw = 0.0;
    grp.cells = 0;
  }
  rep.functional_transitions = 0;
  rep.glitch_transitions = 0;

  const double total_time_ms =
      static_cast<double>(inferences) *
      static_cast<double>(cycles_per_inference) * period_ms;

  // The glitch split needs the per-window functional counts; activity
  // built by hand (tests, external stimuli) may omit them, in which case
  // every transition counts as functional.
  const bool have_split =
      activity.net_functional.size() >= module.num_nets();

  double dyn_nj = 0.0;
  double glitch_nj = 0.0;
  for (const Cell& c : cells_vec) {
    const auto& p = lib.params(c.type);
    GroupReport& grp = rep.groups[c.group];
    grp.area_cm2 += p.area_mm2 / 100.0;
    grp.static_mw += p.static_power_uw / 1000.0;
    ++grp.cells;
    if (c.type == CellType::kDff) {
      grp.static_mw += cal.clock_tree_power_uw_per_dff / 1000.0;
    }
    const std::uint64_t toggles = activity.net_toggles[c.out];
    if (toggles != 0) {
      const std::uint64_t functional =
          have_split ? std::min(activity.net_functional[c.out], toggles)
                     : toggles;
      const std::uint64_t glitches = toggles - functional;
      rep.functional_transitions += functional;
      rep.glitch_transitions += glitches;
      const double load = fanout_load(cal, lv, c.out);
      const double cell_nj =
          static_cast<double>(toggles) * p.switch_energy_nj * load;
      const double cell_glitch_nj =
          static_cast<double>(glitches) * p.switch_energy_nj * load;
      dyn_nj += cell_nj;
      glitch_nj += cell_glitch_nj;
      // nJ over ms -> uW; /1000 -> mW.
      grp.dynamic_mw += cell_nj / total_time_ms / 1000.0;
      grp.glitch_mw += cell_glitch_nj / total_time_ms / 1000.0;
    }
  }
  dyn_nj += static_cast<double>(activity.dff_clock_events) *
            cal.dff_clock_energy_nj;
  // Clock energy is attributed to the group of each DFF proportionally;
  // for simplicity it lands in the totals only (groups keep logic energy).
  // It is functional by definition, so it never enters the glitch slice.

  rep.area_cm2 = area_cm2(stats, lib);
  rep.static_mw = static_power_mw(stats, lib);
  rep.dynamic_mw = dyn_nj / total_time_ms / 1000.0;  // nJ/ms = uW
  rep.dynamic_glitch_mw = glitch_nj / total_time_ms / 1000.0;
  rep.dynamic_functional_mw = rep.dynamic_mw - rep.dynamic_glitch_mw;
  rep.total_mw = rep.static_mw + rep.dynamic_mw;
  rep.frequency_hz = 1000.0 / period_ms;
  rep.latency_ms = static_cast<double>(cycles_per_inference) * period_ms;
  // total_mw [mW] x latency [ms] = uJ; /1000 -> mJ.
  rep.energy_per_inference_mj = rep.total_mw * rep.latency_ms / 1000.0;
}

}  // namespace pml::power
