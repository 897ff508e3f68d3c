// Tests of the benchmark's own output checks: each check accepts the
// output its reference model predicts and rejects that output with one
// value corrupted, so a wrong result from the program cannot pass.
#include <gtest/gtest.h>

#include "checks.hpp"

namespace mnbench {
namespace {

// ---- NoC traffic --------------------------------------------------------

std::vector<GenPacket> small_traffic() {
  return make_uniform_traffic(7, 4, 4, 400, 1, 20, 8);
}

/// What a correct network delivers: every packet once, at its target.
std::vector<RecvPacket> perfect_delivery(const std::vector<GenPacket>& sent) {
  std::vector<RecvPacket> out;
  for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
    out.push_back({it->dst, it->payload});
  }
  return out;
}

TEST(NocCheck, TrafficIsSeededAndWellFormed) {
  const auto a = small_traffic();
  ASSERT_GT(a.size(), 20u);
  const auto b = small_traffic();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].payload, b[i].payload);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_NE(a[i].src, a[i].dst);
    EXPECT_EQ(a[i].payload.size(), 8u);
  }
  const auto c = make_uniform_traffic(8, 4, 4, 400, 1, 20, 8);
  EXPECT_FALSE(c.size() == a.size() && c[0].payload == a[0].payload &&
               c[0].dst == a[0].dst);
}

TEST(NocCheck, AcceptsPerfectDelivery) {
  const auto sent = small_traffic();
  EXPECT_EQ(check_delivery(sent, perfect_delivery(sent)), "");
}

TEST(NocCheck, RejectsDroppedPacket) {
  const auto sent = small_traffic();
  auto got = perfect_delivery(sent);
  got.erase(got.begin() + 5);
  EXPECT_NE(check_delivery(sent, got).find("never delivered"),
            std::string::npos);
}

TEST(NocCheck, RejectsDuplicatedPacket) {
  const auto sent = small_traffic();
  auto got = perfect_delivery(sent);
  got.push_back(got[3]);
  EXPECT_NE(check_delivery(sent, got).find("more than once"),
            std::string::npos);
}

TEST(NocCheck, RejectsCorruptedPayloadAndWrongNode) {
  const auto sent = small_traffic();
  auto got = perfect_delivery(sent);
  got[2].payload[6] ^= 0x10;
  EXPECT_NE(check_delivery(sent, got).find("corrupted"), std::string::npos);
  got = perfect_delivery(sent);
  got[4].at = static_cast<std::uint16_t>((got[4].at + 1) % 16);
  EXPECT_NE(check_delivery(sent, got).find("delivered at node"),
            std::string::npos);
}

TEST(NocCheck, FlitsForwardedFollowXyHops) {
  // 2 payload flits + header + size = 4 flits; node 0 -> node 5 on a 4x4
  // mesh is 1 hop east and 1 hop north: 3 routers forward each flit.
  GenPacket p;
  p.src = 0;
  p.dst = 5;
  p.payload = {0, 0};
  EXPECT_EQ(expected_flits_forwarded({p}, 4), 12u);
  p.dst = 1;
  EXPECT_EQ(expected_flits_forwarded({p}, 4), 8u);
}

// ---- the paper's applications ------------------------------------------

TEST(MandelCheck, ModelHasStructure) {
  const MandelParams p;
  const auto px = mandel_model(p);
  ASSERT_EQ(px.size(), p.width * p.height);
  // The viewport spans the set: some pixels escape at once, some never.
  unsigned inside = 0, fast_escape = 0;
  for (const auto v : px) {
    inside += v == p.max_iter;
    fast_escape += v <= 1;
  }
  EXPECT_GT(inside, 10u);
  EXPECT_GT(fast_escape, 10u);
}

TEST(MandelCheck, RejectsOneFlippedPixel) {
  const MandelParams p;
  auto px = mandel_model(p);
  EXPECT_EQ(check_mandel(p, px), "");
  px[p.width * 5 + 7] ^= 1;
  EXPECT_NE(check_mandel(p, px).find("pixel (7,5)"), std::string::npos);
  px.pop_back();
  EXPECT_NE(check_mandel(p, px), "");
}

TEST(EdgeCheck, ModelIsTheGradientSum) {
  Gray in{3, 3, {0, 10, 0, 40, 99, 7, 0, 100, 0}};
  const Gray out = edge_model(in);
  // |7 - 40| + |100 - 10| at the only interior pixel; borders are 0.
  EXPECT_EQ(out.px[4], 33 + 90);
  for (std::size_t i = 0; i < out.px.size(); ++i) {
    if (i != 4) {
      EXPECT_EQ(out.px[i], 0);
    }
  }
}

TEST(EdgeCheck, RejectsOneWrongRow) {
  const Gray in = make_image(3, 16, 8);
  Gray out = edge_model(in);
  EXPECT_EQ(check_edge(in, out), "");
  for (unsigned x = 0; x < out.width; ++x) out.px[4 * out.width + x] += 1;
  EXPECT_NE(check_edge(in, out).find("edge row 4"), std::string::npos);
  out = edge_model(in);
  out.height -= 1;
  EXPECT_NE(check_edge(in, out), "");
}

// ---- shared memory (MSI) ------------------------------------------------

TEST(MsiCheck, AcceptsTheModel) {
  const MsiParams p = make_msi_params(11);
  std::vector<std::vector<std::uint16_t>> printfs;
  for (unsigned c = 0; c < p.cores; ++c) {
    printfs.push_back(msi_expected_printf(p, c));
  }
  EXPECT_EQ(check_msi(p, printfs, msi_expected_window(p)), "");
  // The token-passed counters hold cores x rounds.
  EXPECT_EQ(msi_expected_window(p)[p.counter_base], p.cores * p.rounds);
}

TEST(MsiCheck, RejectsMiscountedSharedCounter) {
  const MsiParams p = make_msi_params(11);
  std::vector<std::vector<std::uint16_t>> printfs;
  for (unsigned c = 0; c < p.cores; ++c) {
    printfs.push_back(msi_expected_printf(p, c));
  }
  auto window = msi_expected_window(p);
  window[p.counter_base + 2] -= 1;  // one lost increment
  EXPECT_NE(check_msi(p, printfs, window).find("shared counter"),
            std::string::npos);
}

TEST(MsiCheck, RejectsWrongSumOrPrivateWord) {
  const MsiParams p = make_msi_params(11);
  std::vector<std::vector<std::uint16_t>> printfs;
  for (unsigned c = 0; c < p.cores; ++c) {
    printfs.push_back(msi_expected_printf(p, c));
  }
  auto window = msi_expected_window(p);
  printfs[2][1] += 1;
  EXPECT_NE(check_msi(p, printfs, window).find("core 3"), std::string::npos);
  printfs[2][1] -= 1;
  window[p.private_base + 3] ^= 4;
  EXPECT_NE(check_msi(p, printfs, window).find("msi window"),
            std::string::npos);
}

// ---- mn-serve jobs ------------------------------------------------------

TEST(JobCheck, MixCoversEveryKindAndMode) {
  const auto mix = make_job_mix(5, 12);
  unsigned kinds[3] = {0, 0, 0}, fast = 0, scanf_jobs = 0;
  for (const JobDef& j : mix) {
    ++kinds[static_cast<int>(j.kind)];
    fast += j.fast;
    scanf_jobs += !j.scanf_inputs.empty();
    EXPECT_FALSE(job_expected_printf(j).empty());
  }
  EXPECT_EQ(kinds[0], 4u);
  EXPECT_EQ(kinds[1], 4u);
  EXPECT_EQ(kinds[2], 4u);
  EXPECT_EQ(fast, 6u);
  EXPECT_EQ(scanf_jobs, 4u);
}

TEST(JobCheck, ModelOfEachKind) {
  JobDef echo;
  echo.kind = JobKind::kEcho;
  echo.a = 3;
  echo.b = 4;
  echo.scanf_inputs = {5, 7, 0, 9};
  EXPECT_EQ(job_expected_printf(echo), (std::vector<std::uint16_t>{19, 25}));
  JobDef div;
  div.kind = JobKind::kDivisors;
  div.a = 12;
  div.b = 12;
  div.n = 2;
  // 12 has divisors 1,2,3,4,6,12; 13 has 1,13 (13 > b, so only 1).
  EXPECT_EQ(job_expected_printf(div), (std::vector<std::uint16_t>{6, 1, 7}));
  JobDef poly;
  poly.kind = JobKind::kPoly;
  poly.a = 1;
  poly.b = 0;
  poly.n = 2;
  // acc: 1 -> 1*5 + 0 = 5 -> 5*5 + 1 = 26.
  EXPECT_EQ(job_expected_printf(poly), (std::vector<std::uint16_t>{26}));
}

TEST(JobCheck, RejectsWrongPrintfValue) {
  for (const JobDef& j : make_job_mix(9, 6)) {
    auto got = job_expected_printf(j);
    EXPECT_EQ(check_job(j, got), "");
    got.back() += 1;
    EXPECT_NE(check_job(j, got), "");
    got.pop_back();
    EXPECT_NE(check_job(j, got), "");
  }
}

}  // namespace
}  // namespace mnbench
