// Graph text-serialization round trips and error handling, plus the
// rejection paths of the binary ParamStore format.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "graph/sampler.h"
#include "graph/serialize.h"
#include "models/zoo.h"
#include "nn/params.h"

namespace respect::graph {
namespace {

void ExpectDagsEqual(const Dag& a, const Dag& b) {
  ASSERT_EQ(a.NodeCount(), b.NodeCount());
  ASSERT_EQ(a.EdgeCount(), b.EdgeCount());
  EXPECT_EQ(a.Name(), b.Name());
  for (NodeId v = 0; v < a.NodeCount(); ++v) {
    EXPECT_EQ(a.Attr(v).name, b.Attr(v).name);
    EXPECT_EQ(a.Attr(v).type, b.Attr(v).type);
    EXPECT_EQ(a.Attr(v).param_bytes, b.Attr(v).param_bytes);
    EXPECT_EQ(a.Attr(v).output_bytes, b.Attr(v).output_bytes);
    EXPECT_EQ(a.Attr(v).macs, b.Attr(v).macs);
  }
  for (int i = 0; i < a.EdgeCount(); ++i) {
    EXPECT_EQ(a.Edges()[i], b.Edges()[i]);
  }
}

TEST(SerializeTest, RoundTripsSampledGraph) {
  std::mt19937_64 rng(1);
  const Dag dag = SampleTrainingDag(30, rng);
  std::stringstream ss;
  WriteDag(dag, ss);
  ExpectDagsEqual(dag, ReadDag(ss));
}

TEST(SerializeTest, RoundTripsRealModel) {
  const Dag dag = models::BuildModel(models::ModelName::kXception);
  std::stringstream ss;
  WriteDag(dag, ss);
  ExpectDagsEqual(dag, ReadDag(ss));
}

TEST(SerializeTest, RoundTripsThroughFile) {
  const std::string path = "/tmp/respect_dag_test.txt";
  std::mt19937_64 rng(2);
  const Dag dag = SampleTrainingDag(20, rng);
  SaveDag(dag, path);
  ExpectDagsEqual(dag, LoadDag(path));
  std::filesystem::remove(path);
}

TEST(SerializeTest, PreservesNamesWithSpaces) {
  Dag dag("my model v2");
  OpAttr attr;
  attr.name = "conv 1 / branch a";
  dag.AddNode(std::move(attr));
  dag.AddNode({});
  dag.AddEdge(0, 1);
  std::stringstream ss;
  WriteDag(dag, ss);
  const Dag loaded = ReadDag(ss);
  EXPECT_EQ(loaded.Name(), "my model v2");
  EXPECT_EQ(loaded.Attr(0).name, "conv 1 / branch a");
}

TEST(SerializeTest, RejectsBadHeader) {
  std::stringstream ss("not-a-dag 1\n");
  EXPECT_THROW(ReadDag(ss), std::runtime_error);
}

TEST(SerializeTest, RejectsOutOfOrderNodeIds) {
  std::stringstream ss(
      "respect-dag 1\nname x\nnode 1 Conv2D 0 0 0 a\n");
  EXPECT_THROW(ReadDag(ss), std::runtime_error);
}

TEST(SerializeTest, RejectsUnknownRecord) {
  std::stringstream ss("respect-dag 1\nblob 1 2 3\n");
  EXPECT_THROW(ReadDag(ss), std::runtime_error);
}

TEST(SerializeTest, RejectsDanglingEdge) {
  std::stringstream ss(
      "respect-dag 1\nnode 0 Conv2D 1 1 1 a\nedge 0 7\n");
  EXPECT_THROW(ReadDag(ss), std::invalid_argument);
}

TEST(SerializeTest, RejectsCyclicInput) {
  std::stringstream ss(
      "respect-dag 1\n"
      "node 0 Conv2D 1 1 1 a\nnode 1 Conv2D 1 1 1 b\n"
      "edge 0 1\nedge 1 0\n");
  EXPECT_THROW(ReadDag(ss), std::logic_error);
}

}  // namespace
}  // namespace respect::graph

namespace respect::nn {
namespace {

class ParamLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(5);
    store_.GetOrCreate("a", 3, 4, rng);
    store_.GetOrCreate("b", 2, 1, rng);
    snapshot_ = store_.Values();
    path_ = (std::filesystem::temp_directory_path() /
             ("respect_param_load_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// The rejected Load must leave every previous value in place.
  void ExpectStoreIntact() const {
    ASSERT_EQ(store_.Values().size(), snapshot_.size());
    for (const auto& [name, value] : snapshot_) {
      ASSERT_TRUE(store_.Contains(name)) << name;
      const Tensor& now = store_.Value(name);
      ASSERT_TRUE(now.SameShape(value)) << name;
      for (std::int64_t e = 0; e < value.Size(); ++e) {
        EXPECT_EQ(now.Data()[e], value.Data()[e]) << name << "[" << e << "]";
      }
    }
  }

  ParamStore store_;
  std::map<std::string, Tensor> snapshot_;
  std::string path_;
};

TEST_F(ParamLoadTest, RejectsNaNWeight) {
  std::mt19937_64 rng(6);
  ParamStore poisoned;
  poisoned.GetOrCreate("a", 3, 4, rng);
  poisoned.GetOrCreate("b", 2, 1, rng);
  poisoned.Value("a").At(1, 2) = std::numeric_limits<float>::quiet_NaN();
  poisoned.Save(path_);
  EXPECT_THROW(store_.Load(path_), std::runtime_error);
  ExpectStoreIntact();
}

TEST_F(ParamLoadTest, RejectsTruncatedFile) {
  std::mt19937_64 rng(7);
  ParamStore other;
  other.GetOrCreate("a", 3, 4, rng);
  other.GetOrCreate("b", 2, 1, rng);
  other.Save(path_);
  std::vector<char> bytes;
  {
    std::ifstream is(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  // Cut inside the last tensor's payload: the first entry parses, so a
  // Load that cleared the store up front would leave it half-filled.
  bytes.resize(bytes.size() - 3);
  {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(store_.Load(path_), std::runtime_error);
  ExpectStoreIntact();
}

TEST_F(ParamLoadTest, ValidFileStillReplacesValues) {
  std::mt19937_64 rng(8);
  ParamStore other;
  other.GetOrCreate("c", 2, 2, rng);
  other.Save(path_);
  store_.Load(path_);
  EXPECT_FALSE(store_.Contains("a"));
  ASSERT_TRUE(store_.Contains("c"));
  EXPECT_EQ(store_.Value("c").At(1, 1), other.Value("c").At(1, 1));
}

}  // namespace
}  // namespace respect::nn
