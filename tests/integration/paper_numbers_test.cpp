// The headline-number regression suite: every quantitative claim we
// reproduce from the paper, asserted in one place. If calibration drifts,
// this file says exactly which published number broke.
#include <gtest/gtest.h>

#include "cluster/des.hpp"
#include "cluster/latency.hpp"
#include "cluster/sizing.hpp"
#include "model/extrapolate.hpp"
#include "model/scenarios.hpp"
#include "model/throughput.hpp"
#include "workload/abilene.hpp"
#include "workload/synthetic.hpp"

namespace rb {
namespace {

// Every byte is a field so the ctest case names, which gtest_discover_tests
// builds from the raw bytes of the parameter, are the same on every run:
// `name_tag` fills the slot after `app` with the bytes each case was first
// registered under (see SweepParam in property_sweep_test.cpp).
struct PaperPoint {
  App app;
  uint8_t name_tag[7];
  double frame_bytes;
  double paper_gbps;
  double tolerance;
};
static_assert(sizeof(PaperPoint) == 32, "PaperPoint must have no padding");

class Fig8Regression : public ::testing::TestWithParam<PaperPoint> {};

TEST_P(Fig8Regression, MatchesPaper) {
  PaperPoint pt = GetParam();
  ThroughputConfig cfg;
  cfg.app = pt.app;
  cfg.frame_bytes = pt.frame_bytes;
  ThroughputResult r = SolveThroughput(cfg);
  EXPECT_NEAR(r.bps / 1e9, pt.paper_gbps, pt.tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Fig8, Fig8Regression,
    ::testing::Values(
        PaperPoint{App::kMinimalForwarding, {0xB0, 0x28, 0x48, 0xFE, 0x7F}, 64, 9.7, 0.3},
        PaperPoint{App::kMinimalForwarding, {0x5D, 0x52, 0xA1, 0xAB, 0x55}, 729.6, 24.6, 0.2},
        PaperPoint{App::kIpRouting, {}, 64, 6.35, 0.2},
        PaperPoint{App::kIpRouting, {}, 729.6, 24.6, 0.2},
        PaperPoint{App::kIpsec, {0xB0, 0x28, 0x48, 0xFE, 0x7F}, 64, 1.4, 0.1},
        PaperPoint{App::kIpsec, {}, 729.6, 4.45, 0.2}));

TEST(Table1Regression, PollingConfigurations) {
  auto rate = [](uint16_t kp, uint16_t kn) {
    ThroughputConfig cfg;
    cfg.batching = {kp, kn};
    return SolveThroughput(cfg).bps / 1e9;
  };
  EXPECT_NEAR(rate(1, 1), 1.46, 0.1);
  EXPECT_NEAR(rate(32, 1), 4.97, 0.3);
  EXPECT_NEAR(rate(32, 16), 9.77, 0.4);
}

TEST(Fig7Regression, CumulativeImpact) {
  ThroughputConfig tuned;  // Nehalem + multi-queue + batching
  ThroughputConfig no_mods = tuned;
  no_mods.multi_queue = false;
  no_mods.batching = {1, 1};
  ThroughputConfig xeon = no_mods;
  xeon.spec = ServerSpec::SharedBusXeon();

  double full = SolveThroughput(tuned).pps;
  double plain = SolveThroughput(no_mods).pps;
  double old_arch = SolveThroughput(xeon).pps;
  // "a 6.7-fold improvement relative to the same server without our
  // modifications and an 11-fold improvement relative to the shared-bus
  // Xeon" (§4.2).
  EXPECT_NEAR(full / plain, 6.7, 0.7);
  EXPECT_NEAR(full / old_arch, 11.0, 1.5);
  // And the Nehalem-vs-Xeon architecture gap alone is 2-3x (§4.2).
  EXPECT_NEAR(plain / old_arch, 1.6, 0.5);
}

TEST(Fig6Regression, PaperColumn) {
  for (const auto& r : EvaluateFig6Scenarios()) {
    EXPECT_NEAR(r.gbps_per_fp, r.paper_gbps, r.paper_gbps * 0.15) << r.label;
  }
}

TEST(ProjectionRegression, NextGenAndAbilene) {
  auto proj = ProjectNextGen64B();
  EXPECT_NEAR(proj[0].next_gen.bps / 1e9, 38.8, 1.5);
  EXPECT_NEAR(proj[1].next_gen.bps / 1e9, 19.9, 1.0);
  EXPECT_NEAR(proj[2].next_gen.bps / 1e9, 5.8, 0.3);
  ThroughputResult abilene = ProjectAbileneUnlimitedNics(App::kMinimalForwarding, 729.6);
  EXPECT_NEAR(abilene.bps / 1e9, 70.0, 15.0);
}

TEST(Rb4Regression, ForwardingPerformanceBands) {
  // §6.2: 12 Gbps at 64 B (within [4*6.35/2, 4*9.7/2] = [12.7, 19.4]
  // minus reordering-avoidance overhead), ~35 Gbps with Abilene.
  {
    ClusterSim sim(ClusterConfig::Rb4());
    FixedSizeDistribution sizes(64);
    auto stats = sim.RunUniform(TrafficMatrix::Uniform(4), 3.0e9, &sizes, 0.01);
    EXPECT_LT(stats.loss_fraction(), 0.02) << "RB4 must carry 12 Gbps aggregate of 64 B";
  }
  {
    ClusterSim sim(ClusterConfig::Rb4());
    FixedSizeDistribution sizes(64);
    auto stats = sim.RunUniform(TrafficMatrix::Uniform(4), 5.0e9, &sizes, 0.01);
    EXPECT_GT(stats.loss_fraction(), 0.05) << "RB4 is NOT expected to carry 20 Gbps of 64 B";
  }
  {
    ClusterSim sim(ClusterConfig::Rb4());
    AbileneSizeDistribution sizes;
    auto stats = sim.RunUniform(TrafficMatrix::Uniform(4), 8.75e9, &sizes, 0.01);
    EXPECT_LT(stats.loss_fraction(), 0.02) << "RB4 must carry ~35 Gbps of Abilene";
  }
}

TEST(Rb4Regression, ReorderingNumbers) {
  // §6.2: 0.15% with the flowlet extension vs 5.5% without. We assert the
  // order-of-magnitude shape: <1% with flowlets, >1% without, and at
  // least a 5x gap.
  auto run = [](bool flowlets) {
    ClusterConfig cfg = ClusterConfig::Rb4();
    cfg.vlb.flowlets = flowlets;
    cfg.seed = 7;
    ClusterSim sim(cfg);
    auto gen_cfg = FlowTrafficGenerator::ConfigForRate(9e9, 729.6, 40, 20000, 13);
    FlowTrafficGenerator gen(gen_cfg, std::make_unique<AbileneSizeDistribution>());
    return sim.RunSinglePairTrace(&gen, 0, 2, 0.05).reorder_sequence_fraction;
  };
  double with_flowlets = run(true);
  double without = run(false);
  EXPECT_LT(with_flowlets, 0.01);
  EXPECT_GT(without, 0.01);
  EXPECT_GT(without / std::max(with_flowlets, 1e-6), 5.0);
}

TEST(Rb4Regression, LatencyNumbers) {
  LatencyEstimate e = EstimateLatency();
  EXPECT_NEAR(e.per_server_us, 24.0, 0.5);
  EXPECT_NEAR(e.cluster_2hop_us, 47.6, 1.0);
}

TEST(Fig3Regression, MeshTransitions) {
  EXPECT_TRUE(SizeCluster(ServerPlatform::Current(), 32).mesh);
  EXPECT_FALSE(SizeCluster(ServerPlatform::Current(), 64).mesh);
  EXPECT_TRUE(SizeCluster(ServerPlatform::MoreNics(), 128).mesh);
  EXPECT_FALSE(SizeCluster(ServerPlatform::MoreNics(), 256).mesh);
}

TEST(Table3Regression, ReferenceValuesPreserved) {
  EXPECT_EQ(AppProfile::For(App::kMinimalForwarding).instructions_per_packet_64, 1033);
  EXPECT_DOUBLE_EQ(AppProfile::For(App::kMinimalForwarding).cycles_per_instruction_64, 1.19);
  EXPECT_EQ(AppProfile::For(App::kIpRouting).instructions_per_packet_64, 1512);
  EXPECT_DOUBLE_EQ(AppProfile::For(App::kIpRouting).cycles_per_instruction_64, 1.23);
  EXPECT_EQ(AppProfile::For(App::kIpsec).instructions_per_packet_64, 14221);
  EXPECT_DOUBLE_EQ(AppProfile::For(App::kIpsec).cycles_per_instruction_64, 0.55);
}

}  // namespace
}  // namespace rb
