#pragma once
// Reference models and output checks of the benchmark. Everything here is
// computed from the workload definitions alone (the generated inputs and
// the kernels' source-level semantics), never from the simulator, so a
// check fails whenever the program under test returns a wrong result.
// Every check returns an empty string on success and a one-line reason on
// failure.

#include <cstdint>
#include <string>
#include <vector>

namespace mnbench {

/// SplitMix64: the driver's own seeded generator for every input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// True with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) { return below(den) < num; }

 private:
  std::uint64_t x_;
};

// ---- NoC traffic --------------------------------------------------------

/// One generated packet. Payload byte 0 is the source node, bytes 1..2
/// the per-source sequence number, the rest seeded random data.
struct GenPacket {
  std::uint64_t due_cycle = 0;
  std::uint16_t src = 0;  ///< node index y*nx + x
  std::uint16_t dst = 0;
  std::vector<std::uint8_t> payload;
};

/// One packet as popped at a node's network interface.
struct RecvPacket {
  std::uint16_t at = 0;  ///< node index where it was delivered
  std::vector<std::uint8_t> payload;
};

/// Open-loop Bernoulli schedule: every node starts a packet with
/// probability rate_num/rate_den in each of `window` cycles, to a uniform
/// destination other than itself.
std::vector<GenPacket> make_uniform_traffic(std::uint64_t seed, unsigned nx,
                                            unsigned ny, std::uint64_t window,
                                            std::uint64_t rate_num,
                                            std::uint64_t rate_den,
                                            std::size_t payload_flits);

/// Every generated packet arrived exactly once, at its destination, with
/// its payload intact, and nothing else arrived.
std::string check_delivery(const std::vector<GenPacket>& sent,
                           const std::vector<RecvPacket>& received);

/// Σ (payload + 2)·(hops + 1) over the XY routes of `sent`: the flits
/// every router on the path forwards, the destination's local port
/// included.
std::uint64_t expected_flits_forwarded(const std::vector<GenPacket>& sent,
                                       unsigned nx);

// ---- the paper's applications ------------------------------------------

/// Mandelbrot parameters shared by the MiniC kernel and its model.
struct MandelParams {
  unsigned width = 24;
  unsigned height = 16;
  unsigned max_iter = 12;
  int x0 = -576;  ///< Q8 left edge
  int y0 = -384;  ///< Q8 top edge
};

/// The kernel's arithmetic on 16-bit words: `+ - *` wrap, comparisons
/// are signed, `/` and `>>` are unsigned. Returns row-major iteration
/// counts.
std::vector<std::uint16_t> mandel_model(const MandelParams& p);

std::string check_mandel(const MandelParams& p,
                         const std::vector<std::uint16_t>& pixels);

struct Gray {
  unsigned width = 0;
  unsigned height = 0;
  std::vector<std::uint16_t> px;  ///< row-major
};

Gray make_image(std::uint64_t seed, unsigned width, unsigned height);

/// |in(x+1,y) - in(x-1,y)| + |in(x,y+1) - in(x,y-1)|; borders are 0.
Gray edge_model(const Gray& in);

std::string check_edge(const Gray& in, const Gray& out);

// ---- shared memory (MSI) ------------------------------------------------

/// Three-phase data-race-free kernel run by every core (see
/// workload_msi.cpp for the MiniC source these parameters generate).
struct MsiParams {
  unsigned cores = 4;
  unsigned private_words = 64;  ///< per-core region at private_base + 64*c
  unsigned private_base = 256;
  unsigned passes = 3;
  std::vector<std::uint16_t> stride;  ///< per-core increment multiplier
  unsigned table_words = 128;         ///< host-preloaded table at offset 0
  unsigned table_reps = 2;
  std::vector<std::uint16_t> table;
  unsigned counter_base = 640;
  unsigned counters = 4;
  unsigned rounds = 8;
};

MsiParams make_msi_params(std::uint64_t seed);

/// Values core `c` (0-based) printf's: private sum, then table sum.
std::vector<std::uint16_t> msi_expected_printf(const MsiParams& p,
                                               unsigned c);

/// Expected shared window [0, counter_base + counters) after the run.
std::vector<std::uint16_t> msi_expected_window(const MsiParams& p);

std::string check_msi(const MsiParams& p,
                      const std::vector<std::vector<std::uint16_t>>& printfs,
                      const std::vector<std::uint16_t>& window);

// ---- mn-serve jobs ------------------------------------------------------

enum class JobKind : std::uint8_t { kPoly, kDivisors, kEcho };

/// One job of the serve mix: a MiniC program with seeded constants.
struct JobDef {
  JobKind kind = JobKind::kPoly;
  bool fast = false;  ///< exec mode fast instead of accurate
  std::uint16_t a = 0, b = 0, n = 0;
  std::vector<std::uint16_t> scanf_inputs;  ///< kEcho only, 0-terminated
};

/// `count` jobs cycling through the three kinds; the first half runs in
/// accurate, the second half in fast exec mode.
std::vector<JobDef> make_job_mix(std::uint64_t seed, unsigned count);

std::string job_source(const JobDef& j);

/// The printf values of processor 1, evaluated from the job definition.
std::vector<std::uint16_t> job_expected_printf(const JobDef& j);

std::string check_job(const JobDef& j, const std::vector<std::uint16_t>& got);

}  // namespace mnbench
