// mnbench: end-to-end benchmark driver for the MultiNoC simulator.
//
//   mnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-dir <dir>]
//
// Prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics (and a span file in --trace-dir) with
// --trace 1. See mnbench/README.md.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace mnbench {

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_cycles_per_s", "cycles/s"},
    {"app_sim_cycles", "cycles"},
    {"peak_rss_mib", "MiB"},
};

// Per-layer metrics, in the order of mnbench/README.md. A workload that
// does not exercise a layer reports 0 for it.
constexpr Metric kPerLayer[] = {
    {"sim.evals", "count"},
    {"sim.skipped_evals", "count"},
    {"sim.eval_ratio", "ratio"},
    {"sim.fast_forward_cycles", "cycles"},
    {"sim.commit_wires", "count"},
    {"sim.commit_changed", "count"},
    {"sim.commit_useful_ratio", "ratio"},
    {"sim.host_ns_per_eval", "ns"},
    {"noc.flits_forwarded", "count"},
    {"noc.packets_routed", "count"},
    {"noc.routing_rejects", "count"},
    {"noc.vc_alloc_stalls", "count"},
    {"noc.packets_delivered", "count"},
    {"noc.host_ns_per_flit", "ns"},
    {"noc.pkt_latency_p50_cycles", "cycles"},
    {"noc.pkt_latency_p99_cycles", "cycles"},
    {"proc.instructions", "count"},
    {"proc.cpi", "cycles"},
    {"proc.stall_cycles", "cycles"},
    {"proc.remote_reads", "count"},
    {"proc.remote_writes", "count"},
    {"proc.host_ns_per_instr", "ns"},
    {"fastexec.fast_share", "ratio"},
    {"fastexec.blocks_compiled", "count"},
    {"fastexec.block_hit_ratio", "ratio"},
    {"fastexec.checkpoint_switches", "count"},
    {"fastexec.io_forced_switches", "count"},
    {"mem.requests_served", "count"},
    {"l1.hits", "count"},
    {"l1.misses", "count"},
    {"l1.hit_ratio", "ratio"},
    {"l1.miss_latency_cycles", "cycles"},
    {"l1.nacks", "count"},
    {"l1.writebacks", "count"},
    {"dir.requests", "count"},
    {"dir.nacks", "count"},
    {"dir.invalidations", "count"},
    {"dir.recalls", "count"},
    {"dir.bank_wait_cycles", "cycles"},
    {"backing.row_hit_ratio", "ratio"},
    {"serial.uart_bytes_rx", "count"},
    {"serial.uart_bytes_tx", "count"},
    {"serial.frames_to_noc", "count"},
    {"serial.frames_to_host", "count"},
    {"host.boot_s", "s"},
    {"host.download_s", "s"},
    {"host.run_s", "s"},
    {"host.readback_s", "s"},
    {"host.download_cycles", "cycles"},
    {"host.readback_cycles", "cycles"},
    {"cc.compile_s", "s"},
    {"cc.words_emitted", "count"},
    {"edge.rows_processed", "count"},
    {"edge.load_cycles", "cycles"},
    {"serve.parse_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.warm_reuse", "count"},
    {"serve.reconstructs", "count"},
    {"serve.digest_rebuilds", "count"},
    {"serve.jobs_per_s", "1/s"},
    {"serve.job_p50_ms", "ms"},
    {"serve.job_p99_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.wall_s", "s"},
};

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Peak resident set of this process image. getrusage's ru_maxrss is not
/// used: across execve it keeps the peak of the process that forked it.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: mnbench --workload <noc_uniform_16x16|paper_apps_2x2|"
               "shared_msi_3x3|serve_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n");
  return 2;
}

}  // namespace

}  // namespace mnbench

int main(int argc, char** argv) {
  using namespace mnbench;
  Context ctx;
  ctx.process_start = Clock::now();

  std::string workload;
  std::string trace_dir = ".bench_build/traces";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      ctx.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      ctx.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-dir") {
      trace_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || ctx.seconds <= 0) return usage();
  ctx.spans = SpanLog(ctx.trace);

  Report rep;
  if (workload == "noc_uniform_16x16") {
    rep = run_noc_uniform(ctx);
  } else if (workload == "paper_apps_2x2") {
    rep = run_paper_apps(ctx);
  } else if (workload == "shared_msi_3x3") {
    rep = run_shared_msi(ctx);
  } else if (workload == "serve_mixed") {
    rep = run_serve_mixed(ctx);
  } else {
    return usage();
  }
  if (rep.rounds.empty()) {
    std::fprintf(stderr, "mnbench: %s completed no round\n", workload.c_str());
    return 1;
  }

  // Correctness: every round's checks passed, and every round of the same
  // inputs simulated exactly the same number of cycles.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < rep.rounds.size(); ++i) {
    const Round& r = rep.rounds[i];
    attempted += r.ops;
    failed += r.failed;
    if (!r.error.empty()) {
      std::fprintf(stderr, "mnbench: round %zu: %s\n", i, r.error.c_str());
      correct = false;
    } else if (r.app_cycles != rep.rounds[0].app_cycles) {
      std::fprintf(stderr,
                   "mnbench: round %zu simulated %.0f cycles, round 0 %.0f\n",
                   i, r.app_cycles, rep.rounds[0].app_cycles);
      correct = false;
    }
  }

  std::vector<double> wall, rate;
  for (const Round& r : rep.rounds) {
    wall.push_back(r.wall_s);
    rate.push_back(r.sim_cycles / r.wall_s);
  }
  std::vector<std::pair<const Metric*, double>> out;
  if (!ctx.trace) {
    // Host-time metrics take the fastest round: every round does the same
    // simulated work, and on a shared host the minimum is the figure least
    // moved by other tenants' bursts (README.md, "Statistics").
    const double values[] = {rep.setup_s,
                             *std::min_element(wall.begin(), wall.end()),
                             *std::max_element(rate.begin(), rate.end()),
                             rep.rounds[0].app_cycles, peak_rss_mib()};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    rep.layer["trace.spans"] = static_cast<double>(ctx.spans.size());
    // wall_s of this traced run; over the untraced wall_s it is the
    // tracing overhead.
    rep.layer["trace.wall_s"] = *std::min_element(wall.begin(), wall.end());
    for (const auto& [name, v] : rep.layer) {
      const bool known = std::any_of(
          std::begin(kPerLayer), std::end(kPerLayer),
          [&](const Metric& m) { return name == m.name; });
      if (!known) {
        std::fprintf(stderr, "mnbench: unlisted layer metric %s\n",
                     name.c_str());
        return 1;
      }
    }
    for (const Metric& m : kPerLayer) {
      const auto it = rep.layer.find(m.name);
      out.emplace_back(&m, it == rep.layer.end() ? 0.0 : it->second);
    }
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + workload + "-seed" +
                             std::to_string(ctx.seed) + ".json";
    if (!ctx.spans.write(path, workload)) {
      std::fprintf(stderr, "mnbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "mnbench: spans written to %s\n", path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", \"" : "\"") + std::string(out[i].first->name) +
            "\": {\"value\": " + number(out[i].second) + ", \"unit\": \"" +
            out[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
