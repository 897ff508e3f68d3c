#pragma once
// Per-layer counters read from a live system through its public surface:
// Simulator getters, Mesh::total_stats() and MetricsRegistry::snapshot().

#include <map>
#include <string>

#include "noc/mesh.hpp"
#include "sim/simulator.hpp"

namespace mnbench {

/// Raw counters of one system by name, summable across systems or resets.
using SystemCounters = std::map<std::string, double>;

void accumulate(SystemCounters& into, const SystemCounters& c);

/// Read the counters `sim` and `mesh` accumulated since their last reset.
SystemCounters read_counters(const mn::sim::Simulator& sim,
                             const mn::noc::Mesh& mesh);

/// Fill the sim.*, noc.*, proc.*, fastexec.*, mem.*, l1.*, dir.*,
/// backing.* and serial.* layer metrics. `host_ns` is the host time the
/// counters took; it turns counts into host ns per unit of work.
void add_system_layers(std::map<std::string, double>& layer,
                       const SystemCounters& c, double host_ns);

}  // namespace mnbench
