// LSTM cell, parameter store, Adam optimizer and serialization tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <random>

#include "nn/adam.h"
#include "nn/lstm.h"
#include "nn/params.h"
#include "nn/tape.h"

namespace respect::nn {
namespace {

TEST(ParamStoreTest, CreateAndLookup) {
  std::mt19937_64 rng(1);
  ParamStore store;
  Tensor& w = store.GetOrCreate("w", 3, 4, rng);
  EXPECT_EQ(w.Rows(), 3);
  EXPECT_TRUE(store.Contains("w"));
  EXPECT_FALSE(store.Contains("v"));
  EXPECT_EQ(store.ScalarCount(), 12);
  EXPECT_THROW((void)store.Value("missing"), std::invalid_argument);
  EXPECT_THROW(store.GetOrCreate("w", 2, 2, rng), std::invalid_argument);
}

TEST(ParamStoreTest, ZeroGradsClearsAccumulation) {
  std::mt19937_64 rng(2);
  ParamStore store;
  store.GetOrCreate("w", 2, 2, rng);
  store.Grad("w").At(0, 0) = 5.0f;
  store.ZeroGrads();
  EXPECT_FLOAT_EQ(store.Grad("w").At(0, 0), 0.0f);
}

TEST(ParamStoreTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/respect_params_test.bin";
  std::mt19937_64 rng(3);
  ParamStore store;
  store.GetOrCreate("alpha", 2, 3, rng);
  store.GetOrCreate("beta", 1, 1, rng);
  store.Save(path);

  ParamStore loaded;
  loaded.Load(path);
  EXPECT_TRUE(loaded.Contains("alpha"));
  EXPECT_TRUE(loaded.Contains("beta"));
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(loaded.Value("alpha").At(i, j),
                      store.Value("alpha").At(i, j));
    }
  }
  std::filesystem::remove(path);
}

TEST(ParamStoreTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/respect_params_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a param file", f);
    std::fclose(f);
  }
  ParamStore store;
  EXPECT_THROW(store.Load(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(store.Load("/nonexistent/nope.bin"), std::runtime_error);
}

TEST(LstmCellTest, StateShapesAndDeterminism) {
  std::mt19937_64 rng(4);
  ParamStore store;
  LstmCell cell(store, "lstm", 3, 5, rng);
  EXPECT_EQ(cell.HiddenDim(), 5);

  Tensor x(3, 1, 0.5f);
  const auto s1 = cell.Step(x, cell.InitialState());
  EXPECT_EQ(s1.h.Rows(), 5);
  const auto s2 = cell.Step(x, cell.InitialState());
  for (int i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(s1.h.At(i, 0), s2.h.At(i, 0));
}

TEST(LstmCellTest, TapeAndValuePathsAgree) {
  std::mt19937_64 rng(5);
  ParamStore store;
  LstmCell cell(store, "lstm", 3, 4, rng);
  Tensor x(3, 1, 0.25f);

  const auto value_state = cell.Step(x, cell.InitialState());

  Tape tape;
  const auto tape_state =
      cell.Step(tape, tape.Constant(x), cell.InitialState(tape));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(tape.Value(tape_state.h).At(i, 0), value_state.h.At(i, 0),
                1e-6f);
    EXPECT_NEAR(tape.Value(tape_state.c).At(i, 0), value_state.c.At(i, 0),
                1e-6f);
  }
}

TEST(LstmCellTest, ForgetBiasInitializedOpen) {
  std::mt19937_64 rng(6);
  ParamStore store;
  LstmCell cell(store, "lstm", 2, 3, rng);
  const Tensor& b = store.Value("lstm.b");
  for (int i = 3; i < 6; ++i) EXPECT_FLOAT_EQ(b.At(i, 0), 1.0f);
}

TEST(AdamTest, DescendsQuadratic) {
  // Minimize (w - 3)^2 by feeding grad = 2(w-3).
  std::mt19937_64 rng(7);
  ParamStore store;
  Tensor& w = store.GetOrCreate("w", 1, 1, rng);
  w.At(0, 0) = 0.0f;
  AdamConfig config;
  config.learning_rate = 0.1f;
  config.max_grad_norm = 0;  // no clipping
  Adam adam(config);
  for (int i = 0; i < 200; ++i) {
    store.Grad("w").At(0, 0) = 2.0f * (w.At(0, 0) - 3.0f);
    adam.Step(store);
  }
  EXPECT_NEAR(w.At(0, 0), 3.0f, 0.1f);
  EXPECT_EQ(adam.StepCount(), 200);
}

TEST(AdamTest, GradClippingBoundsStep) {
  std::mt19937_64 rng(8);
  ParamStore store;
  Tensor& w = store.GetOrCreate("w", 1, 1, rng);
  const float before = w.At(0, 0);
  AdamConfig config;
  config.learning_rate = 0.01f;
  config.max_grad_norm = 1.0f;
  Adam adam(config);
  store.Grad("w").At(0, 0) = 1e6f;  // huge gradient
  const float norm = adam.Step(store);
  EXPECT_GT(norm, 1e5f);
  // Adam's per-step movement is bounded by lr regardless of magnitude.
  EXPECT_NEAR(w.At(0, 0), before - 0.01f, 5e-3f);
}

TEST(AdamTest, ZeroesGradsAfterStep) {
  std::mt19937_64 rng(9);
  ParamStore store;
  store.GetOrCreate("w", 1, 1, rng);
  Adam adam;
  store.Grad("w").At(0, 0) = 1.0f;
  adam.Step(store);
  EXPECT_FLOAT_EQ(store.Grad("w").At(0, 0), 0.0f);
}

}  // namespace
}  // namespace respect::nn
