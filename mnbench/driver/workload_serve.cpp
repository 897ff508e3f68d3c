// serve_mixed: an in-process mn-serve Server with 2 warm workers, fed by
// one closed-loop client that keeps two jobs outstanding. Every job is a
// request object passed through serve::parse_job, so its MiniC source is
// compiled per job; the mix includes scanf-interactive jobs, and each
// round runs its first half in accurate and its second half in fast exec
// mode. The mode changes by halves, not job by job: the exec mode is part
// of a worker's warm key, so per-job alternation would make the number of
// warm reuses depend on which worker thread takes which job, and the work
// of a round would vary with thread timing.
#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "host/host.hpp"
#include "layers.hpp"
#include "serve/job.hpp"
#include "serve/server.hpp"
#include "system/multinoc.hpp"

namespace mnbench {

namespace {

constexpr unsigned kJobsPerRound = 24;
constexpr unsigned kWorkers = 2;
constexpr unsigned kOutstanding = 2;

mn::sim::Json job_request(const JobDef& j, unsigned index) {
  using mn::sim::Json;
  Json req = Json::object();
  req["id"] = Json("job" + std::to_string(index));
  req["op"] = Json("run");
  Json progs = Json::array();
  progs.push_back(Json(job_source(j)));
  req["programs"] = std::move(progs);
  Json cfg = Json::object();
  cfg["exec_mode"] = Json(j.fast ? "fast" : "accurate");
  req["config"] = std::move(cfg);
  if (!j.scanf_inputs.empty()) {
    Json in = Json::array();
    for (const std::uint16_t v : j.scanf_inputs) in.push_back(Json(unsigned{v}));
    req["scanf"] = std::move(in);
  }
  return req;
}

std::vector<std::uint16_t> printf_of_p1(const mn::serve::JobResult& r) {
  for (const auto& [proc, values] : r.printf_logs) {
    if (proc == 1) return values;
  }
  return {};
}

/// Run one job alone on a newly constructed single-worker Server.
std::optional<mn::serve::JobResult> run_fresh(const mn::sim::Json& req) {
  std::optional<mn::serve::JobResult> out;
  std::string error;
  auto spec = mn::serve::parse_job(req, &error);
  if (!spec) return out;
  mn::serve::ServerConfig cfg;
  cfg.workers = 1;
  mn::serve::Server server(cfg, [&](const mn::serve::JobResult& r) { out = r; });
  server.submit(std::move(*spec));
  server.drain();
  return out;
}

}  // namespace

Report run_serve_mixed(Context& ctx) {
  Report rep;
  const std::vector<JobDef> mix = make_job_mix(ctx.seed, kJobsPerRound);
  std::vector<mn::sim::Json> requests;
  for (unsigned i = 0; i < mix.size(); ++i) {
    requests.push_back(job_request(mix[i], i));
  }

  std::mutex mu;
  std::condition_variable cv;
  unsigned outstanding = 0;
  std::vector<Clock::time_point> started(mix.size());
  std::vector<mn::serve::JobResult> results(mix.size());
  std::vector<double> latency_ms;       // every job of the run
  std::vector<double> queue_ms, run_ms;
  // Cycles of each job in the first round; 0 where the job failed.
  std::vector<std::uint64_t> first_cycles(mix.size(), 0);
  mn::serve::ServerConfig scfg;
  scfg.workers = kWorkers;
  mn::serve::Server server(scfg, [&](const mn::serve::JobResult& r) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    results[r.tag] = r;
    latency_ms.push_back(1e3 * seconds_between(started[r.tag], now));
    queue_ms.push_back(r.queue_ms);
    run_ms.push_back(r.run_ms);
    --outstanding;
    cv.notify_all();
  });
  rep.setup_s = seconds_between(ctx.process_start, Clock::now());

  run_rounds(ctx, rep, 3, [&](unsigned index) {
    Span round(ctx.spans, "round");
    Round r;
    r.ops = mix.size();
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0; i < mix.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return outstanding < kOutstanding; });
        ++outstanding;
        started[i] = Clock::now();
      }
      std::optional<mn::serve::JobSpec> spec;
      std::string error;
      {
        Span s(ctx.spans, "serve.parse", round.id());
        spec = mn::serve::parse_job(requests[i], &error);
      }
      if (!spec) {
        r.error = "parse_job rejected job " + std::to_string(i) + ": " + error;
        std::lock_guard<std::mutex> lock(mu);
        --outstanding;
        break;
      }
      spec->tag = i;
      server.submit(std::move(*spec));  // a reject is reported as a result
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding == 0; });
    }
    r.wall_s = seconds_between(t0, Clock::now());

    Span s(ctx.spans, "check", round.id());
    for (unsigned i = 0; r.error.empty() && i < mix.size(); ++i) {
      const mn::serve::JobResult& res = results[i];
      r.sim_cycles += static_cast<double>(res.cycles);
      if (!res.ok()) {
        ++r.failed;
      } else if (std::string e = check_job(mix[i], printf_of_p1(res));
                 !e.empty()) {
        r.error = "job " + std::to_string(i) + ": " + e;
      } else if (index == 0) {
        first_cycles[i] = res.cycles;
      } else if (res.cycles != first_cycles[i]) {
        r.error = "job " + std::to_string(i) + " took " +
                  std::to_string(res.cycles) + " cycles, " +
                  std::to_string(first_cycles[i]) + " in the first round";
      }
    }
    r.app_cycles = r.sim_cycles;
    return r;
  });

  // Reference, after the timed rounds so that set-up time stays the
  // program's own: each job alone on a newly constructed Server must take
  // the cycles it took on the warm workers.
  for (unsigned i = 0; rep.rounds[0].error.empty() && i < mix.size(); ++i) {
    if (first_cycles[i] == 0) continue;
    Span s(ctx.spans, "check.reference");
    const auto r = run_fresh(requests[i]);
    if (!r || !r->ok()) {
      rep.rounds[0].error = "reference run of job " + std::to_string(i) +
                            " failed";
    } else if (r->cycles != first_cycles[i]) {
      rep.rounds[0].error = "job " + std::to_string(i) + " took " +
                            std::to_string(first_cycles[i]) +
                            " cycles on a warm worker, " +
                            std::to_string(r->cycles) + " on a new Server";
    }
  }

  if (ctx.trace) {
    auto& L = rep.layer;
    // The workers' systems are private to the Server: replay each job of
    // the mix once on a system built here to read the lower layers'
    // counters (the replay is not part of the timed rounds).
    SystemCounters total;
    std::size_t words_emitted = 0;
    const Clock::time_point t0 = Clock::now();
    {
      Span s(ctx.spans, "replay");
      for (const auto& req : requests) {
        std::string error;
        const auto spec = mn::serve::parse_job(req, &error);
        if (!spec) continue;  // already reported by the round that parsed it
        mn::sim::Simulator sim;
        mn::sys::MultiNoc system(sim, spec->config);
        mn::host::Host host(sim, system);
        std::size_t next = 0;
        host.set_scanf_provider([&](std::uint8_t) {
          return next < spec->scanf_inputs.size() ? spec->scanf_inputs[next++]
                                                  : std::uint16_t{0};
        });
        host.load_and_run({{system.processor(0).config().self_addr,
                            spec->programs[0].image, spec->programs[0].base}});
        accumulate(total, read_counters(sim, system.mesh()));
        words_emitted += spec->programs[0].image.size();
      }
    }
    add_system_layers(L, total, 1e9 * seconds_between(t0, Clock::now()));

    const auto rounds = static_cast<double>(rep.rounds.size());
    const mn::serve::ServerStats st = server.stats();
    double fastest = rep.rounds[0].wall_s;
    for (const Round& r : rep.rounds) fastest = std::min(fastest, r.wall_s);
    std::vector<double> parse = ctx.spans.durations("serve.parse");
    for (double& v : parse) v *= 1e3;
    L["serve.parse_ms"] = median(parse);
    L["serve.queue_ms"] = median(queue_ms);
    L["serve.run_ms"] = median(run_ms);
    L["serve.warm_reuse"] = static_cast<double>(st.warm_reuse) / rounds;
    L["serve.reconstructs"] = static_cast<double>(st.reconstructs) / rounds;
    L["serve.digest_rebuilds"] =
        static_cast<double>(st.digest_rebuilds) / rounds;
    L["serve.jobs_per_s"] = kJobsPerRound / fastest;  // as wall_s
    L["serve.job_p50_ms"] = nearest_rank(latency_ms, 0.50);
    L["serve.job_p99_ms"] = nearest_rank(latency_ms, 0.99);
    L["cc.words_emitted"] = static_cast<double>(words_emitted);
    L["cc.compile_s"] = 1e-3 * L["serve.parse_ms"];
  }
  return rep;
}

}  // namespace mnbench
