#include "layers.hpp"

namespace mnbench {

namespace {

/// Σ of every snapshot entry whose path starts with `prefix` and ends
/// with `suffix` (one entry per component instance).
double sum(const mn::sim::Json& snap, const std::string& prefix,
           const std::string& suffix) {
  double total = 0;
  for (const auto& [path, v] : snap.items()) {
    if (v.is_number() && path.size() >= prefix.size() + suffix.size() &&
        path.compare(0, prefix.size(), prefix) == 0 &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += v.as_number();
    }
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double get(const SystemCounters& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

}  // namespace

void accumulate(SystemCounters& into, const SystemCounters& c) {
  for (const auto& [name, v] : c) into[name] += v;
}

SystemCounters read_counters(const mn::sim::Simulator& sim,
                             const mn::noc::Mesh& mesh) {
  SystemCounters c;
  c["evals"] = static_cast<double>(sim.evals());
  c["skipped_evals"] = static_cast<double>(sim.skipped_evals());
  c["fast_forward_cycles"] = static_cast<double>(sim.fast_forward_cycles());
  c["commit_wires"] = static_cast<double>(sim.commit_wires());
  c["commit_changed"] = static_cast<double>(sim.commit_changed());

  const mn::noc::RouterStats st = mesh.total_stats();
  c["flits_forwarded"] = static_cast<double>(st.flits_forwarded);
  c["packets_routed"] = static_cast<double>(st.packets_routed);
  c["routing_rejects"] = static_cast<double>(st.routing_rejects);
  c["vc_alloc_stalls"] = static_cast<double>(st.vc_alloc_stalls);

  const mn::sim::Json snap = sim.metrics().snapshot();
  c["packets_delivered"] = sum(snap, "ni.", ".packets_received");
  c["accurate_instr"] = sum(snap, "proc.", ".instructions");
  c["fast_instr"] = sum(snap, "r8.fastexec.", ".fast_instructions");
  c["cpu_cycles"] = sum(snap, "proc.", ".cycles");
  c["stall_cycles"] = sum(snap, "proc.", ".stall_cycles");
  c["remote_reads"] = sum(snap, "proc.", ".remote_reads");
  c["remote_writes"] = sum(snap, "proc.", ".remote_writes");
  c["blocks_compiled"] = sum(snap, "r8.fastexec.", ".blocks_compiled");
  c["block_hits"] = sum(snap, "r8.fastexec.", ".block_hits");
  c["checkpoint_switches"] = sum(snap, "r8.fastexec.", ".checkpoint_switches");
  c["io_forced_switches"] = sum(snap, "r8.fastexec.", ".io_forced_switches");
  c["requests_served"] = sum(snap, "mem.", ".requests_served");
  c["l1_hits"] = sum(snap, "mem.cache.", ".hits");
  c["l1_misses"] = sum(snap, "mem.cache.", ".misses");
  c["l1_miss_stall"] = sum(snap, "mem.cache.", ".miss_stall_cycles");
  c["l1_nacks"] = sum(snap, "mem.cache.", ".nacks");
  c["l1_writebacks"] = sum(snap, "mem.cache.", ".writebacks");
  c["dir_requests"] = sum(snap, "mem.", ".dir.requests");
  c["dir_nacks"] = sum(snap, "mem.", ".dir.nacks");
  c["dir_invalidations"] = sum(snap, "mem.", ".dir.invalidations");
  c["dir_recalls"] = sum(snap, "mem.", ".dir.recalls");
  c["dir_bank_wait"] = sum(snap, "mem.", ".dir.bank_wait_cycles");
  c["row_hits"] = sum(snap, "mem.", ".dir.row_hits");
  c["row_misses"] = sum(snap, "mem.", ".dir.row_misses");
  c["uart_rx"] = sum(snap, "serial.", ".uart_bytes_rx");
  c["uart_tx"] = sum(snap, "serial.", ".uart_bytes_tx");
  c["frames_to_noc"] = sum(snap, "serial.", ".frames_to_noc");
  c["frames_to_host"] = sum(snap, "serial.", ".frames_to_host");
  return c;
}

void add_system_layers(std::map<std::string, double>& L,
                       const SystemCounters& c, double host_ns) {
  const double instr = get(c, "accurate_instr") + get(c, "fast_instr");
  L["sim.evals"] = get(c, "evals");
  L["sim.skipped_evals"] = get(c, "skipped_evals");
  L["sim.eval_ratio"] = ratio(get(c, "evals"), get(c, "evals") + get(c, "skipped_evals"));
  L["sim.fast_forward_cycles"] = get(c, "fast_forward_cycles");
  L["sim.commit_wires"] = get(c, "commit_wires");
  L["sim.commit_changed"] = get(c, "commit_changed");
  L["sim.commit_useful_ratio"] = ratio(get(c, "commit_changed"), get(c, "commit_wires"));
  L["sim.host_ns_per_eval"] = ratio(host_ns, get(c, "evals"));
  L["noc.flits_forwarded"] = get(c, "flits_forwarded");
  L["noc.packets_routed"] = get(c, "packets_routed");
  L["noc.routing_rejects"] = get(c, "routing_rejects");
  L["noc.vc_alloc_stalls"] = get(c, "vc_alloc_stalls");
  L["noc.packets_delivered"] = get(c, "packets_delivered");
  L["noc.host_ns_per_flit"] = ratio(host_ns, get(c, "flits_forwarded"));
  L["proc.instructions"] = instr;
  L["proc.cpi"] = ratio(get(c, "cpu_cycles"), get(c, "accurate_instr"));
  L["proc.stall_cycles"] = get(c, "stall_cycles");
  L["proc.remote_reads"] = get(c, "remote_reads");
  L["proc.remote_writes"] = get(c, "remote_writes");
  L["proc.host_ns_per_instr"] = ratio(host_ns, instr);
  L["fastexec.fast_share"] = ratio(get(c, "fast_instr"), instr);
  L["fastexec.blocks_compiled"] = get(c, "blocks_compiled");
  L["fastexec.block_hit_ratio"] =
      ratio(get(c, "block_hits"), get(c, "block_hits") + get(c, "blocks_compiled"));
  L["fastexec.checkpoint_switches"] = get(c, "checkpoint_switches");
  L["fastexec.io_forced_switches"] = get(c, "io_forced_switches");
  L["mem.requests_served"] = get(c, "requests_served");
  L["l1.hits"] = get(c, "l1_hits");
  L["l1.misses"] = get(c, "l1_misses");
  L["l1.hit_ratio"] = ratio(get(c, "l1_hits"), get(c, "l1_hits") + get(c, "l1_misses"));
  L["l1.miss_latency_cycles"] = ratio(get(c, "l1_miss_stall"), get(c, "l1_misses"));
  L["l1.nacks"] = get(c, "l1_nacks");
  L["l1.writebacks"] = get(c, "l1_writebacks");
  L["dir.requests"] = get(c, "dir_requests");
  L["dir.nacks"] = get(c, "dir_nacks");
  L["dir.invalidations"] = get(c, "dir_invalidations");
  L["dir.recalls"] = get(c, "dir_recalls");
  L["dir.bank_wait_cycles"] = get(c, "dir_bank_wait");
  L["backing.row_hit_ratio"] = ratio(get(c, "row_hits"), get(c, "row_hits") + get(c, "row_misses"));
  L["serial.uart_bytes_rx"] = get(c, "uart_rx");
  L["serial.uart_bytes_tx"] = get(c, "uart_tx");
  L["serial.frames_to_noc"] = get(c, "frames_to_noc");
  L["serial.frames_to_host"] = get(c, "frames_to_host");
}

}  // namespace mnbench
