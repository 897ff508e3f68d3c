// noc_uniform_16x16: the paper's router (vc 1, XY, 2-flit buffers, 7-cycle
// routing) on a 16x16 mesh, fed by driver-owned open-loop Bernoulli
// sources. No processor, memory or serial IP exists, so all host work is
// the kernel, the routers and the network interfaces.
#include <algorithm>
#include <memory>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "noc/mesh.hpp"
#include "noc/network_interface.hpp"
#include "sim/simulator.hpp"

namespace mnbench {

namespace {

constexpr unsigned kSide = 16;
constexpr std::uint64_t kWindow = 8000;       // injection cycles per round
constexpr std::uint64_t kRateNum = 1;         // packets/node/cycle = 1/500
constexpr std::uint64_t kRateDen = 500;
constexpr std::size_t kPayloadFlits = 8;
constexpr std::uint64_t kDrainBudget = 1'000'000;

/// Replays one node's share of the generated schedule into its network
/// interface and collects what the interface delivers.
class Source final : public mn::sim::Component {
 public:
  Source(mn::sim::Simulator& sim, mn::noc::Mesh& mesh, unsigned node,
         std::vector<const GenPacket*> schedule,
         std::vector<RecvPacket>& delivered,
         std::vector<double>& latencies)
      : Component("src" + std::to_string(node)),
        sim_(sim),
        node_(node),
        ni_(sim, name() + ".ni", mesh.local_in(node % kSide, node / kSide),
            mesh.local_out(node % kSide, node / kSide)),
        schedule_(std::move(schedule)),
        delivered_(delivered),
        latencies_(latencies) {
    sim.add(this);
    sim.co_schedule(this, &ni_);
  }

  void eval() override {
    while (next_ < schedule_.size() &&
           schedule_[next_]->due_cycle <= sim_.cycle()) {
      const GenPacket& g = *schedule_[next_++];
      mn::noc::Packet p;
      p.target = mn::noc::encode_xy(
          {static_cast<std::uint8_t>(g.dst % kSide),
           static_cast<std::uint8_t>(g.dst / kSide)});
      p.payload = g.payload;
      ni_.send_packet(p);
    }
    while (ni_.has_packet()) {
      mn::noc::ReceivedPacket rp = ni_.pop_packet();
      latencies_.push_back(
          static_cast<double>(rp.recv_cycle - rp.inject_cycle));
      delivered_.push_back({static_cast<std::uint16_t>(node_),
                            std::move(rp.packet.payload)});
    }
  }

  void reset() override { next_ = 0; }

 private:
  mn::sim::Simulator& sim_;
  unsigned node_;
  mn::noc::NetworkInterface ni_;
  std::vector<const GenPacket*> schedule_;
  std::size_t next_ = 0;
  std::vector<RecvPacket>& delivered_;
  std::vector<double>& latencies_;
};

}  // namespace

Report run_noc_uniform(Context& ctx) {
  Report rep;
  std::vector<GenPacket> sent;
  {
    Span s(ctx.spans, "setup.inputs");
    sent = make_uniform_traffic(ctx.seed, kSide, kSide, kWindow, kRateNum,
                                kRateDen, kPayloadFlits);
  }
  const std::uint64_t want_flits = expected_flits_forwarded(sent, kSide);

  const std::uint32_t build = ctx.spans.begin("setup.build", 0);
  mn::sim::Simulator sim;
  sim.set_threads(1);
  mn::noc::Mesh mesh(sim, kSide, kSide);  // the paper's RouterConfig
  std::vector<std::vector<const GenPacket*>> per_node(kSide * kSide);
  for (const GenPacket& g : sent) per_node[g.src].push_back(&g);
  std::vector<RecvPacket> delivered;
  std::vector<double> latencies;
  delivered.reserve(sent.size());
  latencies.reserve(sent.size());
  std::vector<std::unique_ptr<Source>> sources;
  for (unsigned n = 0; n < kSide * kSide; ++n) {
    sources.push_back(std::make_unique<Source>(
        sim, mesh, n, std::move(per_node[n]), delivered, latencies));
  }
  ctx.spans.end(build);
  rep.setup_s = seconds_between(ctx.process_start, Clock::now());

  run_rounds(ctx, rep, 3, [&](unsigned) {
    Span round(ctx.spans, "round");
    Round r;
    r.ops = sent.size();
    sim.reset();
    delivered.clear();
    latencies.clear();
    const Clock::time_point t0 = Clock::now();
    bool drained;
    {
      Span s(ctx.spans, "sim.run", round.id());
      drained = sim.run_until([&] { return delivered.size() == sent.size(); },
                              kWindow + kDrainBudget);
    }
    r.wall_s = seconds_between(t0, Clock::now());
    r.sim_cycles = r.app_cycles = static_cast<double>(sim.cycle());
    Span s(ctx.spans, "check", round.id());
    if (!drained) {
      r.error = "traffic did not drain: " + std::to_string(delivered.size()) +
                " of " + std::to_string(sent.size()) + " packets delivered";
    } else if (std::string e = check_delivery(sent, delivered); !e.empty()) {
      r.error = e;
    } else if (const auto f = mesh.total_stats().flits_forwarded;
               f != want_flits) {
      r.error = "routers forwarded " + std::to_string(f) +
                " flits, the XY routes of the sent packets need " +
                std::to_string(want_flits);
    }
    return r;
  });

  if (ctx.trace) {
    auto& L = rep.layer;
    add_system_layers(L, read_counters(sim, mesh),
                      1e9 * rep.rounds.back().wall_s);
    L["noc.pkt_latency_p50_cycles"] = nearest_rank(latencies, 0.50);
    L["noc.pkt_latency_p99_cycles"] = nearest_rank(latencies, 0.99);
  }
  return rep;
}

}  // namespace mnbench
