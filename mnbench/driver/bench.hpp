#pragma once
// Shared plumbing of the benchmark driver: host clocks, the in-memory
// span log of the traced mode, the timed round loop and the report every
// workload fills.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace mnbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host-time spans recorded around calls into the program's layers. Kept
/// in memory and written as Chrome trace-event JSON when the run ends.
/// Disabled (every call a no-op) unless the run is traced.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (0 when disabled).
  std::uint32_t begin(const char* name, std::uint32_t parent);
  void end(std::uint32_t id);

  /// Durations (s) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    double start_s;
    double end_s;
  };
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span guard.
class Span {
 public:
  Span(SpanLog& log, const char* name, std::uint32_t parent = 0)
      : log_(log), id_(log.begin(name, parent)) {}
  ~Span() { log_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Clock::time_point process_start;
  SpanLog spans{false};
};

/// What one timed round of a workload produced.
struct Round {
  double wall_s = 0;          ///< host time of the timed calls
  double sim_cycles = 0;      ///< simulated cycles the round advanced
  double app_cycles = 0;      ///< activation-to-last-result cycles
  std::uint64_t ops = 0;      ///< operations attempted (and checked)
  std::uint64_t failed = 0;   ///< operations that did not complete
  std::string error;          ///< first failed check, empty when correct
};

/// Everything a workload reports; main() prints the end-to-end or the
/// per-layer half depending on the trace flag.
struct Report {
  double setup_s = 0;
  std::vector<Round> rounds;
  std::map<std::string, double> layer;  ///< per-layer metrics (traced run)
};

/// Run `round` back to back until `ctx.seconds` of rounds have elapsed
/// (whole rounds only, at least `min_rounds`).
void run_rounds(Context& ctx, Report& rep, unsigned min_rounds,
                const std::function<Round(unsigned index)>& round);

double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double nearest_rank(std::vector<double> v, double q);

// Workloads (one translation unit each).
Report run_noc_uniform(Context& ctx);
Report run_paper_apps(Context& ctx);
Report run_shared_msi(Context& ctx);
Report run_serve_mixed(Context& ctx);

}  // namespace mnbench
