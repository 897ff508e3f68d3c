#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mnbench {

std::uint32_t SpanLog::begin(const char* name, std::uint32_t parent) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, seconds_between(t0_, Clock::now()), -1.0});
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_s = seconds_between(t0_, Clock::now());
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_s >= 0 && name == s.name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

bool SpanLog::write(const std::string& path,
                    const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                  "{\"workload\": \"%s\"}, \"traceEvents\": [",
               workload.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end = s.end_s >= 0 ? s.end_s : s.start_s;
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %u}}",
                 i ? "," : "", s.name, s.start_s * 1e6,
                 (end - s.start_s) * 1e6, i + 1, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void run_rounds(Context& ctx, Report& rep, unsigned min_rounds,
                const std::function<Round(unsigned)>& round) {
  const Clock::time_point start = Clock::now();
  for (unsigned i = 0;; ++i) {
    rep.rounds.push_back(round(i));
    if (!rep.rounds.back().error.empty()) return;  // no point repeating
    if (i + 1 >= min_rounds &&
        seconds_between(start, Clock::now()) >= ctx.seconds) {
      return;
    }
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

}  // namespace mnbench
