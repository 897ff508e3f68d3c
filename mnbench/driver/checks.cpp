#include "checks.hpp"

#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

namespace mnbench {

namespace {

/// MiniC `int` arithmetic: 16-bit two's complement.
std::int16_t w16(int v) { return static_cast<std::int16_t>(v & 0xFFFF); }
std::uint16_t u16(int v) { return static_cast<std::uint16_t>(v & 0xFFFF); }

std::string join(const std::vector<std::uint16_t>& v) {
  std::ostringstream s;
  for (std::size_t i = 0; i < v.size(); ++i) s << (i ? "," : "") << v[i];
  return s.str();
}

}  // namespace

// ---- NoC traffic --------------------------------------------------------

std::vector<GenPacket> make_uniform_traffic(std::uint64_t seed, unsigned nx,
                                            unsigned ny, std::uint64_t window,
                                            std::uint64_t rate_num,
                                            std::uint64_t rate_den,
                                            std::size_t payload_flits) {
  const unsigned nodes = nx * ny;
  std::vector<Rng> rngs;
  for (unsigned n = 0; n < nodes; ++n) rngs.emplace_back(seed * 1000003u + n);
  std::vector<std::uint16_t> seq(nodes, 0);
  std::vector<GenPacket> out;
  for (std::uint64_t c = 0; c < window; ++c) {
    for (unsigned n = 0; n < nodes; ++n) {
      Rng& r = rngs[n];
      if (!r.chance(rate_num, rate_den)) continue;
      GenPacket p;
      p.due_cycle = c;
      p.src = static_cast<std::uint16_t>(n);
      do {
        p.dst = static_cast<std::uint16_t>(r.below(nodes));
      } while (p.dst == p.src);
      p.payload.resize(payload_flits);
      p.payload[0] = static_cast<std::uint8_t>(n);
      p.payload[1] = static_cast<std::uint8_t>(seq[n] & 0xFF);
      p.payload[2] = static_cast<std::uint8_t>(seq[n] >> 8);
      for (std::size_t i = 3; i < payload_flits; ++i) {
        p.payload[i] = static_cast<std::uint8_t>(r.next());
      }
      ++seq[n];
      out.push_back(std::move(p));
    }
  }
  return out;
}

std::string check_delivery(const std::vector<GenPacket>& sent,
                           const std::vector<RecvPacket>& received) {
  // (src, seq) -> index into sent
  std::map<std::pair<unsigned, unsigned>, std::size_t> by_key;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto& p = sent[i];
    by_key[{p.src, p.payload[1] | (p.payload[2] << 8)}] = i;
  }
  std::vector<unsigned> seen(sent.size(), 0);
  for (const RecvPacket& r : received) {
    if (r.payload.size() < 3) return "delivered packet with a short payload";
    const auto it = by_key.find({r.payload[0], r.payload[1] | (r.payload[2] << 8)});
    if (it == by_key.end()) return "delivered a packet that was never sent";
    const GenPacket& p = sent[it->second];
    if (r.at != p.dst) {
      return "packet " + std::to_string(p.src) + "/" +
             std::to_string(it->second) + " delivered at node " +
             std::to_string(r.at) + ", expected " + std::to_string(p.dst);
    }
    if (r.payload != p.payload) {
      return "packet from node " + std::to_string(p.src) +
             " arrived with a corrupted payload";
    }
    if (++seen[it->second] > 1) {
      return "packet from node " + std::to_string(p.src) +
             " delivered more than once";
    }
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (seen[i] == 0) {
      return "packet from node " + std::to_string(sent[i].src) + " to " +
             std::to_string(sent[i].dst) + " never delivered";
    }
  }
  return {};
}

std::uint64_t expected_flits_forwarded(const std::vector<GenPacket>& sent,
                                       unsigned nx) {
  std::uint64_t total = 0;
  for (const GenPacket& p : sent) {
    const int hops = std::abs(int(p.src % nx) - int(p.dst % nx)) +
                     std::abs(int(p.src / nx) - int(p.dst / nx));
    total += (p.payload.size() + 2) * static_cast<std::uint64_t>(hops + 1);
  }
  return total;
}

// ---- the paper's applications ------------------------------------------

namespace {

std::int16_t mul_fx(std::int16_t a, std::int16_t b) {
  int neg = 0;
  if (a < 0) { a = w16(0 - a); neg = 1 - neg; }
  if (b < 0) { b = w16(0 - b); neg = 1 - neg; }
  const int ah = u16(a) >> 8;
  const int al = u16(a) & 255;
  const int bh = u16(b) >> 8;
  const int bl = u16(b) & 255;
  std::int16_t r = w16(w16(ah * b) + w16(al * bh) + (u16(al * bl) >> 8));
  if (neg) r = w16(0 - r);
  return r;
}

}  // namespace

std::vector<std::uint16_t> mandel_model(const MandelParams& p) {
  std::vector<std::uint16_t> px(p.width * p.height, 0);
  const int dx = 768 / static_cast<int>(p.width);
  const int dy = 768 / static_cast<int>(p.height);
  for (unsigned y = 0; y < p.height; ++y) {
    const std::int16_t cy = w16(p.y0 + static_cast<int>(y) * dy);
    for (unsigned x = 0; x < p.width; ++x) {
      const std::int16_t cx = w16(p.x0 + static_cast<int>(x) * dx);
      std::int16_t zx = 0, zy = 0;
      unsigned it = 0;
      while (it < p.max_iter) {
        const std::int16_t zx2 = mul_fx(zx, zx);
        const std::int16_t zy2 = mul_fx(zy, zy);
        if (w16(zx2 + zy2) > 1024) break;
        const std::int16_t t = w16(zx2 - zy2 + cx);
        zy = mul_fx(zx, zy);
        zy = w16(zy + zy + cy);
        zx = t;
        ++it;
      }
      px[y * p.width + x] = static_cast<std::uint16_t>(it);
    }
  }
  return px;
}

std::string check_mandel(const MandelParams& p,
                         const std::vector<std::uint16_t>& pixels) {
  const auto want = mandel_model(p);
  if (pixels.size() != want.size()) return "mandelbrot: wrong pixel count";
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (pixels[i] != want[i]) {
      return "mandelbrot pixel (" + std::to_string(i % p.width) + "," +
             std::to_string(i / p.width) + ") = " + std::to_string(pixels[i]) +
             ", model says " + std::to_string(want[i]);
    }
  }
  return {};
}

Gray make_image(std::uint64_t seed, unsigned width, unsigned height) {
  Gray g{width, height, std::vector<std::uint16_t>(width * height)};
  Rng r(seed ^ 0x1D6Eull);
  for (auto& v : g.px) v = static_cast<std::uint16_t>(r.below(256));
  return g;
}

Gray edge_model(const Gray& in) {
  Gray out{in.width, in.height,
           std::vector<std::uint16_t>(in.width * in.height, 0)};
  const auto at = [&](unsigned x, unsigned y) {
    return static_cast<int>(in.px[y * in.width + x]);
  };
  for (unsigned y = 1; y + 1 < in.height; ++y) {
    for (unsigned x = 1; x + 1 < in.width; ++x) {
      out.px[y * in.width + x] =
          u16(std::abs(at(x + 1, y) - at(x - 1, y)) +
              std::abs(at(x, y + 1) - at(x, y - 1)));
    }
  }
  return out;
}

std::string check_edge(const Gray& in, const Gray& out) {
  const Gray want = edge_model(in);
  if (out.width != want.width || out.height != want.height ||
      out.px.size() != want.px.size()) {
    return "edge: output has the wrong shape";
  }
  for (unsigned y = 0; y < want.height; ++y) {
    for (unsigned x = 0; x < want.width; ++x) {
      const std::size_t i = y * want.width + x;
      if (out.px[i] != want.px[i]) {
        return "edge row " + std::to_string(y) + " differs at x=" +
               std::to_string(x) + ": " + std::to_string(out.px[i]) +
               " vs " + std::to_string(want.px[i]);
      }
    }
  }
  return {};
}

// ---- shared memory (MSI) ------------------------------------------------

MsiParams make_msi_params(std::uint64_t seed) {
  MsiParams p;
  Rng r(seed ^ 0x3531ull);
  for (unsigned c = 0; c < p.cores; ++c) {
    p.stride.push_back(static_cast<std::uint16_t>(1 + r.below(97)));
  }
  p.table.resize(p.table_words);
  for (auto& v : p.table) v = static_cast<std::uint16_t>(r.below(4096));
  return p;
}

namespace {

/// Phase 1 of core c on its private region: returns the printf'd sum and
/// leaves the final region contents in `region`.
std::uint16_t msi_private(const MsiParams& p, unsigned c,
                          std::vector<std::uint16_t>& region) {
  region.assign(p.private_words, 0);
  std::int16_t s = 0;
  for (unsigned pass = 0; pass < p.passes; ++pass) {
    for (unsigned i = 0; i < p.private_words; ++i) {
      const std::int16_t v =
          w16(region[i] + static_cast<int>(i) * p.stride[c] +
              static_cast<int>(pass));
      region[i] = static_cast<std::uint16_t>(v);
      s = w16(s + v);
    }
  }
  return static_cast<std::uint16_t>(s);
}

}  // namespace

std::vector<std::uint16_t> msi_expected_printf(const MsiParams& p,
                                               unsigned c) {
  std::vector<std::uint16_t> region;
  const std::uint16_t priv = msi_private(p, c, region);
  std::int16_t t = 0;
  for (unsigned rep = 0; rep < p.table_reps; ++rep) {
    for (unsigned i = 0; i < p.table_words; ++i) {
      t = w16(t + p.table[i] * static_cast<int>(i % 7 + c + 1));
    }
  }
  return {priv, static_cast<std::uint16_t>(t)};
}

std::vector<std::uint16_t> msi_expected_window(const MsiParams& p) {
  std::vector<std::uint16_t> win(p.counter_base + p.counters, 0);
  for (unsigned i = 0; i < p.table_words; ++i) win[i] = p.table[i];
  for (unsigned c = 0; c < p.cores; ++c) {
    std::vector<std::uint16_t> region;
    msi_private(p, c, region);
    for (unsigned i = 0; i < p.private_words; ++i) {
      win[p.private_base + p.private_words * c + i] = region[i];
    }
  }
  for (unsigned k = 0; k < p.counters; ++k) {
    win[p.counter_base + k] = static_cast<std::uint16_t>(p.cores * p.rounds);
  }
  return win;
}

std::string check_msi(const MsiParams& p,
                      const std::vector<std::vector<std::uint16_t>>& printfs,
                      const std::vector<std::uint16_t>& window) {
  if (printfs.size() != p.cores) return "msi: wrong number of cores";
  for (unsigned c = 0; c < p.cores; ++c) {
    const auto want = msi_expected_printf(p, c);
    if (printfs[c] != want) {
      return "msi core " + std::to_string(c + 1) + " printed [" +
             join(printfs[c]) + "], expected [" + join(want) + "]";
    }
  }
  const auto want = msi_expected_window(p);
  if (window.size() != want.size()) return "msi: wrong window size";
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (window[i] != want[i]) {
      const bool counter = i >= p.counter_base;
      return std::string(counter ? "msi shared counter" : "msi window") +
             " at offset " + std::to_string(i) + " = " +
             std::to_string(window[i]) + ", expected " +
             std::to_string(want[i]);
    }
  }
  return {};
}

// ---- mn-serve jobs ------------------------------------------------------

std::vector<JobDef> make_job_mix(std::uint64_t seed, unsigned count) {
  Rng r(seed ^ 0x5E7Eull);
  std::vector<JobDef> mix;
  for (unsigned i = 0; i < count; ++i) {
    JobDef j;
    j.kind = static_cast<JobKind>(i % 3);
    j.fast = i >= count / 2;
    switch (j.kind) {
      case JobKind::kPoly:
        j.a = static_cast<std::uint16_t>(r.below(1000));
        j.b = static_cast<std::uint16_t>(r.below(256));
        j.n = static_cast<std::uint16_t>(48 + r.below(17));
        break;
      case JobKind::kDivisors:
        j.a = static_cast<std::uint16_t>(200 + r.below(1800));
        j.b = static_cast<std::uint16_t>(24 + r.below(9));
        j.n = 12;
        break;
      case JobKind::kEcho:
        j.a = static_cast<std::uint16_t>(2 + r.below(30));
        j.b = static_cast<std::uint16_t>(r.below(500));
        for (int k = 0; k < 6; ++k) {
          j.scanf_inputs.push_back(static_cast<std::uint16_t>(1 + r.below(1000)));
        }
        j.scanf_inputs.push_back(0);
        break;
    }
    mix.push_back(std::move(j));
  }
  return mix;
}

std::string job_source(const JobDef& j) {
  const std::string a = std::to_string(j.a), b = std::to_string(j.b),
                    n = std::to_string(j.n);
  switch (j.kind) {
    case JobKind::kPoly:
      return "int main() {\n"
             "  int acc = " + a + ";\n"
             "  for (int i = 0; i < " + n + "; i = i + 1) {\n"
             "    acc = acc * 5 + (i ^ " + b + ");\n"
             "    if ((i & 7) == 7) { printf(acc); }\n"
             "  }\n"
             "  printf(acc);\n"
             "}\n";
    case JobKind::kDivisors:
      return "int main() {\n"
             "  int total = 0;\n"
             "  for (int v = " + a + "; v < " + a + " + " + n +
             "; v = v + 1) {\n"
             "    int c = 0;\n"
             "    for (int d = 1; d <= " + b + "; d = d + 1) {\n"
             "      if (v % d == 0) { c = c + 1; }\n"
             "    }\n"
             "    printf(c);\n"
             "    total = total + c;\n"
             "  }\n"
             "  printf(total);\n"
             "}\n";
    case JobKind::kEcho:
      return "int main() {\n"
             "  int x = scanf();\n"
             "  while (x != 0) {\n"
             "    printf(x * " + a + " + " + b + ");\n"
             "    x = scanf();\n"
             "  }\n"
             "}\n";
  }
  return {};
}

std::vector<std::uint16_t> job_expected_printf(const JobDef& j) {
  std::vector<std::uint16_t> out;
  switch (j.kind) {
    case JobKind::kPoly: {
      std::int16_t acc = w16(j.a);
      for (int i = 0; i < j.n; ++i) {
        acc = w16(acc * 5 + (i ^ j.b));
        if ((i & 7) == 7) out.push_back(static_cast<std::uint16_t>(acc));
      }
      out.push_back(static_cast<std::uint16_t>(acc));
      break;
    }
    case JobKind::kDivisors: {
      int total = 0;
      for (int v = j.a; v < j.a + j.n; ++v) {
        int c = 0;
        for (int d = 1; d <= j.b; ++d) c += (v % d == 0) ? 1 : 0;
        out.push_back(static_cast<std::uint16_t>(c));
        total += c;
      }
      out.push_back(u16(total));
      break;
    }
    case JobKind::kEcho:
      for (const std::uint16_t x : j.scanf_inputs) {
        if (x == 0) break;
        out.push_back(u16(x * j.a + j.b));
      }
      break;
  }
  return out;
}

std::string check_job(const JobDef& j, const std::vector<std::uint16_t>& got) {
  const auto want = job_expected_printf(j);
  if (got != want) {
    return "job printed [" + join(got) + "], expected [" + join(want) + "]";
  }
  return {};
}

}  // namespace mnbench
