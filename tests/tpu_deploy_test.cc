// Deployment packaging + Edge TPU simulator tests: quantization arithmetic,
// segment closure, package round trips, cache-overflow behaviour, DES vs
// analytic recurrence agreement.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>

#include "deploy/package.h"
#include "deploy/quantize.h"
#include "exact/dp_partitioner.h"
#include "graph/sampler.h"
#include "graph/topology.h"
#include "models/zoo.h"
#include "sched/rho.h"
#include "tpu/sim.h"

namespace respect {
namespace {

TEST(QuantizeTest, ScalesBytesByFour) {
  graph::Dag dag;
  graph::OpAttr attr;
  attr.param_bytes = 400;
  attr.output_bytes = 101;  // rounds up
  dag.AddNode(std::move(attr));
  dag.AddNode({});
  dag.AddEdge(0, 1);
  const graph::Dag q = deploy::QuantizeGraph(dag);
  EXPECT_EQ(q.Attr(0).param_bytes, 100);
  EXPECT_EQ(q.Attr(0).output_bytes, 26);  // ceil(101/4)
  EXPECT_EQ(q.EdgeCount(), 1);
}

TEST(QuantizeTest, CustomWidths) {
  graph::Dag dag;
  graph::OpAttr attr;
  attr.param_bytes = 64;
  dag.AddNode(std::move(attr));
  deploy::QuantizationSpec spec;
  spec.weight_bits = 16;
  const graph::Dag q = deploy::QuantizeGraph(dag, spec);
  EXPECT_EQ(q.Attr(0).param_bytes, 32);
}

TEST(QuantizeTest, RejectsZeroWidths) {
  graph::Dag dag;
  dag.AddNode({});
  deploy::QuantizationSpec spec;
  spec.weight_bits = 0;
  EXPECT_THROW(deploy::QuantizeGraph(dag, spec), std::invalid_argument);
}

deploy::PipelinePackage MakePackage(int stages, std::uint64_t seed = 42,
                                    bool quantize = true) {
  std::mt19937_64 rng(seed);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  const auto dp = exact::PartitionDefaultOrder(dag, stages);
  return deploy::BuildPackage(dag, dp.schedule, quantize);
}

TEST(PackageTest, SegmentsPartitionTheGraph) {
  const auto package = MakePackage(4);
  std::size_t total_ops = 0;
  for (const auto& seg : package.segments) total_ops += seg.ops.size();
  EXPECT_EQ(total_ops, 30u);
  EXPECT_EQ(package.num_stages, 4);
  EXPECT_TRUE(package.quantized);
}

TEST(PackageTest, SegmentOpsInternallyOrdered) {
  std::mt19937_64 rng(43);
  const graph::Dag dag = graph::SampleTrainingDag(30, rng);
  const auto dp = exact::PartitionDefaultOrder(dag, 3);
  const auto package = deploy::BuildPackage(dag, dp.schedule, false);
  for (const auto& seg : package.segments) {
    // Within a segment, every edge between local ops points forward.
    std::vector<int> pos(dag.NodeCount(), -1);
    for (int i = 0; i < static_cast<int>(seg.ops.size()); ++i) {
      pos[seg.ops[i]] = i;
    }
    for (const graph::Edge& e : dag.Edges()) {
      if (pos[e.from] >= 0 && pos[e.to] >= 0) {
        EXPECT_LT(pos[e.from], pos[e.to]);
      }
    }
  }
}

TEST(PackageTest, BoundaryTensorsConnectStages) {
  const auto package = MakePackage(4);
  for (const auto& seg : package.segments) {
    for (const auto& t : seg.outputs) {
      EXPECT_EQ(t.from_stage, seg.stage);
      EXPECT_GT(t.to_stage, seg.stage);
      EXPECT_GT(t.bytes, 0);
    }
    for (const auto& t : seg.inputs) {
      EXPECT_LT(t.from_stage, seg.stage + 1);
    }
  }
  EXPECT_GT(package.host_input_bytes, 0);
  EXPECT_GT(package.host_output_bytes, 0);
}

TEST(PackageTest, RejectsInvalidSchedule) {
  std::mt19937_64 rng(44);
  const graph::Dag dag = graph::SampleTrainingDag(10, rng);
  sched::Schedule bad{2, std::vector<int>(10, 0)};
  bad.stage[0] = 1;  // source after its children
  EXPECT_THROW(deploy::BuildPackage(dag, bad, true), std::invalid_argument);
}

TEST(PackageTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/respect_package_test.bin";
  const auto package = MakePackage(5, 45);
  deploy::SavePackage(package, path);
  const auto loaded = deploy::LoadPackage(path);
  EXPECT_EQ(loaded.model_name, package.model_name);
  EXPECT_EQ(loaded.num_stages, package.num_stages);
  ASSERT_EQ(loaded.segments.size(), package.segments.size());
  for (std::size_t k = 0; k < loaded.segments.size(); ++k) {
    EXPECT_EQ(loaded.segments[k].ops, package.segments[k].ops);
    EXPECT_EQ(loaded.segments[k].param_bytes, package.segments[k].param_bytes);
    EXPECT_EQ(loaded.segments[k].inputs.size(),
              package.segments[k].inputs.size());
  }
  std::filesystem::remove(path);
}

TEST(PackageTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/respect_package_garbage.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "garbage";
  }
  EXPECT_THROW(deploy::LoadPackage(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(ProfileTest, CacheOverflowTriggersStreaming) {
  auto package = MakePackage(3, 46);
  tpu::EdgeTpuModel device;
  device.cache_bytes = 1;  // force overflow everywhere
  const auto costs = tpu::ProfilePackage(package, device, tpu::UsbLinkModel{});
  for (const auto& c : costs) {
    EXPECT_FALSE(c.OnCache());
    EXPECT_GT(c.param_stream_us, 0.0);
  }
  device.cache_bytes = 1ll << 40;  // everything cached
  const auto cached = tpu::ProfilePackage(package, device, tpu::UsbLinkModel{});
  for (const auto& c : cached) {
    EXPECT_TRUE(c.OnCache());
  }
}

TEST(ProfileTest, BalancedScheduleHasLowerPeakCostThanSkewed) {
  // A skewed schedule overflows the cache on one stage and must be slower.
  std::mt19937_64 rng(47);
  graph::SamplerConfig config;
  config.num_nodes = 30;
  config.min_param_bytes = 3 << 20;
  config.max_param_bytes = 4 << 20;
  const graph::Dag dag = graph::SampleDag(config, rng);

  const auto balanced = exact::PartitionDefaultOrder(dag, 4).schedule;
  // Skew: nearly everything on stage 0.
  sched::Schedule skewed{4, std::vector<int>(30, 0)};
  const auto topo = graph::AnalyzeTopology(dag);
  skewed.stage[topo.order[27]] = 1;
  skewed.stage[topo.order[28]] = 2;
  skewed.stage[topo.order[29]] = 3;

  const auto pb = deploy::BuildPackage(dag, balanced, true);
  const auto ps = deploy::BuildPackage(dag, skewed, true);
  tpu::SimConfig sim;
  sim.num_inferences = 200;
  EXPECT_LT(tpu::SimulatePipeline(pb, sim).per_inference_us,
            tpu::SimulatePipeline(ps, sim).per_inference_us);
}

TEST(SimTest, DesMatchesAnalyticRecurrence) {
  for (const std::uint64_t seed : {48u, 49u, 50u}) {
    const auto package = MakePackage(4, seed);
    tpu::SimConfig config;
    config.num_inferences = 137;
    const auto des = tpu::SimulatePipeline(package, config);
    const auto costs = tpu::ProfilePackage(package, config.device, config.link);
    const double analytic = tpu::AnalyticPipelineUs(costs, 137);
    EXPECT_NEAR(des.total_us, analytic, 1e-6 * analytic) << "seed " << seed;
  }
}

TEST(SimTest, ThroughputApproachesBottleneckRate) {
  const auto package = MakePackage(4, 51);
  tpu::SimConfig config;
  config.num_inferences = 2000;
  const auto result = tpu::SimulatePipeline(package, config);
  const auto costs = tpu::ProfilePackage(package, config.device, config.link);
  double bottleneck = 0;
  for (const auto& c : costs) bottleneck = std::max(bottleneck, c.TotalUs());
  // Steady state: per-inference time ~ bottleneck (within fill overhead).
  EXPECT_NEAR(result.per_inference_us, bottleneck, bottleneck * 0.05);
  EXPECT_GE(result.first_latency_us, bottleneck);
}

TEST(SimTest, MoreInferencesAmortizeFill) {
  const auto package = MakePackage(5, 52);
  tpu::SimConfig few;
  few.num_inferences = 2;
  tpu::SimConfig many;
  many.num_inferences = 500;
  EXPECT_GT(tpu::SimulatePipeline(package, few).per_inference_us,
            tpu::SimulatePipeline(package, many).per_inference_us);
}

TEST(SimTest, RejectsEmptyInput) {
  const auto package = MakePackage(3, 53);
  tpu::SimConfig config;
  config.num_inferences = 0;
  EXPECT_THROW(tpu::SimulatePipeline(package, config), std::invalid_argument);
  EXPECT_THROW((void)tpu::AnalyticPipelineUs({}, 5), std::invalid_argument);
}

TEST(SimTest, RealModelEndToEnd) {
  const graph::Dag dag = models::BuildModel(models::ModelName::kResNet50);
  const auto dp = exact::PartitionDefaultOrder(dag, 4);
  const auto package = deploy::BuildPackage(dag, dp.schedule, true);
  tpu::SimConfig config;
  config.num_inferences = 100;
  const auto result = tpu::SimulatePipeline(package, config);
  // Sanity band: a quantized ResNet50 on 4 pipelined Edge TPUs lands in the
  // low milliseconds per inference.
  EXPECT_GT(result.per_inference_us, 100.0);
  EXPECT_LT(result.per_inference_us, 100'000.0);
}

}  // namespace
}  // namespace respect
