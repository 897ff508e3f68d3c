// shared_msi_3x3: a 3x3 mesh with 4 R8 cores and 2 Memory IPs homing the
// shared window under MSI coherence. Every core runs one data-race-free
// MiniC kernel in three phases: a private read-modify-write sweep, a sum
// over a host-preloaded read-shared table, and shared counters passed
// core to core with notify/wait.
#include <optional>
#include <string>

#include "bench.hpp"
#include "cc/compiler.hpp"
#include "checks.hpp"
#include "host/host.hpp"
#include "layers.hpp"
#include "system/address_map.hpp"
#include "system/multinoc.hpp"

namespace mnbench {

namespace {

constexpr std::uint64_t kBudget = 500'000'000;

mn::sys::SystemConfig msi_config() {
  mn::sys::SystemConfig cfg;
  cfg.nx = 3;
  cfg.ny = 3;
  cfg.serial_node = {0, 0};
  cfg.processor_nodes = {{1, 0}, {2, 0}, {0, 1}, {1, 1}};
  cfg.memory_nodes = {{2, 1}, {0, 2}};
  cfg.cache.coherence = mn::mem::Coherence::kMsi;
  return cfg;
}

/// The kernel of core `c` (0-based; processor number c + 1).
std::string msi_source(const MsiParams& p, unsigned c) {
  const auto n = [](unsigned v) { return std::to_string(v); };
  const unsigned self = c + 1;
  const unsigned prev = c == 0 ? p.cores : c;
  const unsigned next = c + 1 == p.cores ? 1 : c + 2;
  std::string s = "int main() {\n  int s = 0;\n";
  s += "  for (int pass = 0; pass < " + n(p.passes) + "; pass = pass + 1) {\n";
  s += "    for (int i = 0; i < " + n(p.private_words) + "; i = i + 1) {\n";
  s += "      int a = " + n(mn::sys::kRemoteMemBase + p.private_base +
                            p.private_words * c) + " + i;\n";
  s += "      int v = peek(a) + i * " + n(p.stride[c]) + " + pass;\n";
  s += "      poke(a, v);\n      s = s + v;\n    }\n  }\n  printf(s);\n";
  s += "  int t = 0;\n";
  s += "  for (int rep = 0; rep < " + n(p.table_reps) + "; rep = rep + 1) {\n";
  s += "    for (int i = 0; i < " + n(p.table_words) + "; i = i + 1) {\n";
  s += "      t = t + peek(" + n(mn::sys::kRemoteMemBase) + " + i) * (i % 7 + " +
       n(self) + ");\n    }\n  }\n  printf(t);\n";
  s += "  for (int r = 0; r < " + n(p.rounds) + "; r = r + 1) {\n";
  s += c == 0 ? "    if (r > 0) { wait(" + n(prev) + "); }\n"
              : "    wait(" + n(prev) + ");\n";
  s += "    for (int k = 0; k < " + n(p.counters) + "; k = k + 1) {\n";
  s += "      int a = " + n(mn::sys::kRemoteMemBase + p.counter_base) +
       " + k;\n      poke(a, peek(a) + 1);\n    }\n";
  s += "    notify(" + n(next) + ");\n  }\n";
  if (c == 0) s += "  wait(" + n(prev) + ");\n";  // the token's last lap
  s += "}\n";
  return s;
}

}  // namespace

Report run_shared_msi(Context& ctx) {
  Report rep;
  const MsiParams mp = make_msi_params(ctx.seed);
  const mn::sys::SystemConfig cfg = msi_config();
  const std::size_t line = cfg.cache.line_words;
  const std::size_t homes = cfg.memory_nodes.size();
  const auto window_words =
      static_cast<std::uint16_t>(mp.counter_base + mp.counters);

  std::vector<mn::cc::CompileResult> kernels;
  {
    Span s(ctx.spans, "cc.compile");
    for (unsigned c = 0; c < mp.cores; ++c) {
      kernels.push_back(mn::cc::compile(msi_source(mp, c)));
    }
  }
  for (const auto& k : kernels) {
    if (!k.ok) {
      rep.rounds.push_back({});
      rep.rounds.back().error = "msi kernel compile failed: " + k.errors;
      return rep;
    }
  }

  const std::uint32_t build = ctx.spans.begin("setup.build", 0);
  mn::sim::Simulator sim;
  mn::sys::MultiNoc system(sim, cfg);
  mn::host::Host host(sim, system, 8);
  ctx.spans.end(build);
  std::vector<std::uint8_t> home_addr, core_addr;
  for (const auto& xy : cfg.memory_nodes) {
    home_addr.push_back(mn::noc::encode_xy(xy));
  }
  for (std::size_t c = 0; c < system.processor_count(); ++c) {
    core_addr.push_back(system.processor(c).config().self_addr);
  }
  std::uint64_t download_cycles = 0, readback_cycles = 0;

  const auto boot = [&](std::uint32_t parent) {
    Span s(ctx.spans, "host.boot", parent);
    return host.boot();
  };
  bool booted = boot(0);
  rep.setup_s = seconds_between(ctx.process_start, Clock::now());

  run_rounds(ctx, rep, 3, [&](unsigned index) {
    Span round(ctx.spans, "round");
    Round r;
    r.ops = mp.cores;
    if (index > 0) {
      sim.reset();
      booted = boot(round.id());
    }
    if (!booted) {
      r.error = "serial boot failed";
      return r;
    }
    const std::uint64_t c0 = sim.cycle();
    const Clock::time_point t0 = Clock::now();
    bool ok;
    {
      // The table goes line by line to each line's home directory.
      Span s(ctx.spans, "host.download", round.id());
      for (std::size_t o = 0; o < mp.table_words; o += line) {
        host.write_memory(
            home_addr[mn::sys::shared_home_index(
                static_cast<std::uint16_t>(o), line, homes)],
            static_cast<std::uint16_t>(o),
            {mp.table.begin() + o, mp.table.begin() + o + line});
      }
      for (unsigned c = 0; c < mp.cores; ++c) {
        host.load_program(core_addr[c], kernels[c].image);
      }
      ok = host.flush(kBudget);
    }
    download_cycles = sim.cycle() - c0;
    const std::uint64_t active = sim.cycle();
    if (ok) {
      Span s(ctx.spans, "host.run", round.id());
      for (unsigned c = 0; c < mp.cores; ++c) host.activate(core_addr[c]);
      ok = host.wait_for([&] {
                   for (unsigned c = 0; c < mp.cores; ++c) {
                     if (!system.processor(c).finished()) return false;
                   }
                   return true;
                 }, kBudget)
               .ok();
    }
    std::vector<std::uint16_t> window;
    if (ok) {
      Span s(ctx.spans, "host.readback", round.id());
      const std::uint64_t c = sim.cycle();
      ok = host.invalidate_cache_range(0, window_words - 1, kBudget).ok();
      std::vector<std::optional<mn::host::ReadResult>> from(homes);
      for (std::size_t h = 0; ok && h < homes; ++h) {
        from[h] = host.read_memory_sync(home_addr[h], 0, window_words,
                                        kBudget);
        ok = from[h].has_value();
      }
      for (std::uint16_t o = 0; ok && o < window_words; ++o) {
        window.push_back(
            from[mn::sys::shared_home_index(o, line, homes)]->words[o]);
      }
      readback_cycles = sim.cycle() - c;
    }
    r.wall_s = seconds_between(t0, Clock::now());
    r.sim_cycles = static_cast<double>(sim.cycle() - c0);
    r.app_cycles = static_cast<double>(sim.cycle() - active);

    Span s(ctx.spans, "check", round.id());
    if (!ok) {
      r.error = "shared-memory kernels did not finish or read back";
      return r;
    }
    std::vector<std::vector<std::uint16_t>> printfs;
    for (unsigned c = 0; c < mp.cores; ++c) {
      const auto& log = host.printf_log(core_addr[c]);
      printfs.emplace_back(log.begin(), log.end());
    }
    r.error = check_msi(mp, printfs, window);
    return r;
  });

  if (ctx.trace) {
    auto& L = rep.layer;
    add_system_layers(L, read_counters(sim, system.mesh()),
                      1e9 * rep.rounds.back().wall_s);
    L["host.boot_s"] = median(ctx.spans.durations("host.boot"));
    L["host.download_s"] = median(ctx.spans.durations("host.download"));
    L["host.run_s"] = median(ctx.spans.durations("host.run"));
    L["host.readback_s"] = median(ctx.spans.durations("host.readback"));
    L["host.download_cycles"] = static_cast<double>(download_cycles);
    L["host.readback_cycles"] = static_cast<double>(readback_cycles);
    L["cc.compile_s"] = median(ctx.spans.durations("cc.compile"));
    double words = 0;
    for (const auto& k : kernels) words += static_cast<double>(k.image.size());
    L["cc.words_emitted"] = words;
  }
  return rep;
}

}  // namespace mnbench
