// paper_apps_2x2: the paper's 2x2 prototype (Serial @00, processors @01
// and @10, Memory @11) with cycle-accurate R8 cores. Each round runs the
// two-processor MiniC mandelbrot (Q8 pixels stored to the Memory IP and
// read back by the host) and then the parallel edge detection of paper
// Fig. 10, image lines streamed over the UART.
#include <optional>
#include <string>

#include "apps/edge_detection.hpp"
#include "bench.hpp"
#include "cc/compiler.hpp"
#include "checks.hpp"
#include "host/host.hpp"
#include "layers.hpp"
#include "system/multinoc.hpp"

namespace mnbench {

namespace {

constexpr unsigned kImageW = 64;
constexpr unsigned kImageH = 24;
constexpr std::uint64_t kBudget = 500'000'000;
constexpr std::uint8_t kProc1 = 0x01, kProc2 = 0x10, kMemory = 0x11;

/// Worker for rows [row0, row1): the mandelbrot of examples/mandelbrot.cpp
/// with the viewport and size taken from `p`. Pixels go to the Memory IP
/// at 0x0800 + y*w + x.
std::string mandel_source(const MandelParams& p, unsigned row0,
                          unsigned row1) {
  std::string s = R"(
int mul_fx(int a, int b) {
  int neg = 0;
  if (a < 0) { a = 0 - a; neg = 1 - neg; }
  if (b < 0) { b = 0 - b; neg = 1 - neg; }
  int ah = a >> 8;
  int al = a & 255;
  int bh = b >> 8;
  int bl = b & 255;
  int r = ah * b + al * bh + ((al * bl) >> 8);
  if (neg) { r = 0 - r; }
  return r;
}

int main() {
)";
  s += "  int row0 = " + std::to_string(row0) + ";\n";
  s += "  int row1 = " + std::to_string(row1) + ";\n";
  s += "  int w = " + std::to_string(p.width) + ";\n";
  s += "  int h = " + std::to_string(p.height) + ";\n";
  s += "  int maxit = " + std::to_string(p.max_iter) + ";\n";
  s += "  int x0 = 0 - " + std::to_string(-p.x0) + ";\n";
  s += "  int y0 = 0 - " + std::to_string(-p.y0) + ";\n";
  s += R"(
  int dx = 768 / w;
  int dy = 768 / h;
  for (int y = row0; y < row1; y = y + 1) {
    int cy = y0 + y * dy;
    for (int x = 0; x < w; x = x + 1) {
      int cx = x0 + x * dx;
      int zx = 0;
      int zy = 0;
      int it = 0;
      while (it < maxit) {
        int zx2 = mul_fx(zx, zx);
        int zy2 = mul_fx(zy, zy);
        if (zx2 + zy2 > 1024) { break; }
        int t = zx2 - zy2 + cx;
        zy = mul_fx(zx, zy);
        zy = zy + zy + cy;
        zx = t;
        it = it + 1;
      }
      poke(0x0800 + y * w + x, it);
    }
  }
}
)";
  return s;
}

mn::apps::Image to_image(const Gray& g) {
  mn::apps::Image img(g.width, g.height);
  img.px = g.px;
  return img;
}

}  // namespace

Report run_paper_apps(Context& ctx) {
  Report rep;
  MandelParams mp;
  Rng rng(ctx.seed);
  // Seeded viewport shift of up to a quarter pixel: every seed samples
  // other points, while the iteration total stays close across seeds.
  mp.x0 -= static_cast<int>(rng.below(9));
  mp.y0 += static_cast<int>(rng.below(9)) - 4;
  const Gray image = make_image(ctx.seed, kImageW, kImageH);

  mn::cc::CompileResult worker[2];
  {
    Span s(ctx.spans, "cc.compile");
    mn::cc::CompileOptions opts;
    opts.memory_floor = 0x380;
    worker[0] = mn::cc::compile(mandel_source(mp, 0, mp.height / 2), opts);
    worker[1] =
        mn::cc::compile(mandel_source(mp, mp.height / 2, mp.height), opts);
  }
  for (const auto& w : worker) {
    if (!w.ok) {
      rep.rounds.push_back({});
      rep.rounds.back().error = "mandelbrot compile failed: " + w.errors;
      return rep;
    }
  }

  const std::uint32_t build = ctx.spans.begin("setup.build", 0);
  mn::sim::Simulator sim;
  mn::sys::MultiNoc system(sim);  // the paper's 2x2, threads = 1
  mn::host::Host host(sim, system, 8);
  ctx.spans.end(build);
  std::uint64_t download_cycles = 0, readback_cycles = 0;
  mn::apps::EdgeRunStats edge_stats;

  const auto boot = [&](std::uint32_t parent) {
    Span s(ctx.spans, "host.boot", parent);
    return host.boot();
  };
  bool booted = boot(0);
  rep.setup_s = seconds_between(ctx.process_start, Clock::now());

  run_rounds(ctx, rep, 3, [&](unsigned index) {
    Span round(ctx.spans, "round");
    Round r;
    r.ops = 2;
    if (index > 0) {  // back to power-on and re-lock the serial link
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
      Span s(ctx.spans, "host.download", round.id());
      host.load_program(kProc1, worker[0].image);
      host.load_program(kProc2, worker[1].image);
      ok = host.flush(kBudget);
    }
    download_cycles = sim.cycle() - c0;
    const std::uint64_t active = sim.cycle();
    if (ok) {
      Span s(ctx.spans, "host.run", round.id());
      host.activate(kProc1);
      host.activate(kProc2);
      ok = host.wait_for([&] {
                   return system.processor(0).finished() &&
                          system.processor(1).finished();
                 }, kBudget)
               .ok();
    }
    std::optional<mn::host::ReadResult> pixels;
    if (ok) {
      Span s(ctx.spans, "host.readback", round.id());
      const std::uint64_t c = sim.cycle();
      pixels = host.read_memory_sync(kMemory, 0, mp.width * mp.height,
                                     kBudget);
      readback_cycles = sim.cycle() - c;
    }
    const std::uint64_t mandel_cycles = sim.cycle() - active;
    mn::apps::Image edges;
    if (pixels) {
      Span s(ctx.spans, "apps.edge", round.id());
      edges = mn::apps::run_parallel_edge_detection(
          sim, system, host, to_image(image), 2, &edge_stats, kBudget);
    }
    r.wall_s = seconds_between(t0, Clock::now());
    r.sim_cycles = static_cast<double>(sim.cycle() - c0);
    r.app_cycles = static_cast<double>(
        mandel_cycles + edge_stats.cycles - edge_stats.load_cycles);

    Span s(ctx.spans, "check", round.id());
    if (!ok) {
      r.error = "mandelbrot did not finish";
    } else if (!pixels) {
      r.error = "mandelbrot read-back timed out";
    } else if (std::string e = check_mandel(mp, pixels->words); !e.empty()) {
      r.error = e;
    } else if (e = check_edge(image, Gray{edges.width, edges.height,
                                          edges.px});
               !e.empty()) {
      r.error = e;
    }
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
    L["cc.words_emitted"] =
        static_cast<double>(worker[0].image.size() + worker[1].image.size());
    L["edge.rows_processed"] = edge_stats.rows_processed;
    L["edge.load_cycles"] = static_cast<double>(edge_stats.load_cycles);
  }
  return rep;
}

}  // namespace mnbench
