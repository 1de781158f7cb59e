// The LSTM-PtrNet agent (Fig. 1b / Algorithm 1 of the paper).
//
// Encoder LSTM digests the embedded node queue q into a context matrix C and
// latent states enc_i; the final encoder state initializes the decoder
// LSTM, whose hidden state queries glimpse+pointer attention each step to
// emit a probability distribution over unpicked nodes.  Picked nodes' logits
// are masked to -inf.  The first decoder input dec_0 is a trainable
// parameter (as in the paper).
//
// Two decoding paths:
//  * greedy inference without gradients, one lock-stepped decode for one
//    graph or a same-size group (works on graphs of any size — the
//    generalizability claim);
//  * tape-recorded sampling for REINFORCE training, returning the summed
//    log-probability node of the sampled sequence.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/cancel.h"
#include "graph/dag.h"
#include "nn/attention.h"
#include "nn/lstm.h"
#include "nn/params.h"
#include "nn/tape.h"
#include "rl/decode_workspace.h"
#include "rl/embedding.h"

namespace respect::rl {

/// Which nodes the decoder may point at.
enum class MaskingMode {
  /// Paper behaviour: only already-picked nodes are masked; dependency
  /// violations are repaired post-inference.
  kVisitedOnly,
  /// Stronger variant (ablation): only dependency-ready nodes are valid, so
  /// emitted sequences are topological by construction.
  kReadySet,
};

struct PtrNetConfig {
  int hidden_dim = 64;
  EmbeddingConfig embedding;

  /// Deployment default is kReadySet: with the compute budgets of this
  /// reproduction (minutes of CPU training vs the paper's 1M-graph GPU
  /// runs), constraining decoding to ready nodes preserves the paper's
  /// near-optimal quality; kVisitedOnly reproduces the paper's exact
  /// formulation and is exercised by the masking ablation benchmark.
  MaskingMode masking = MaskingMode::kReadySet;
  std::uint64_t init_seed = 0x7e5fec7;
};

class PtrNetAgent {
 public:
  explicit PtrNetAgent(const PtrNetConfig& config);

  /// Greedy decode: argmax node each step.  Deterministic.
  [[nodiscard]] std::vector<graph::NodeId> DecodeGreedy(
      const graph::Dag& dag) const;

  /// Workspace overload — the serving hot path: DecodeGreedyBatch on a
  /// one-graph span.  All decode buffers live in `ws` (one per thread; see
  /// decode_workspace.h), so a steady-state call performs zero heap
  /// allocations.  The returned reference aliases `ws.sequences[0]` and is
  /// valid until the next decode on the same workspace.  `cancel`
  /// (optional) is polled once per decode step; a fired token unwinds with
  /// core::CancelledError before the step's recurrence runs.
  [[nodiscard]] const std::vector<graph::NodeId>& DecodeGreedy(
      const graph::Dag& dag, DecodeWorkspace& ws,
      const core::CancelToken& cancel = {}) const;

  /// The inference decode: lock-steps every graph in `dags` — all of which
  /// must be non-null with the SAME node count (std::invalid_argument
  /// otherwise; group by size first, see RlEngine::ScheduleBatch) — so the
  /// per-step recurrences run as one product across the batch: the k-major
  /// panel GEMVs at B = 1, a row-pair GEMM at B >= 2 (nn::DecodeProductInto).
  ///
  /// Every graph's result is bit-identical to a B = 1 decode of it and to
  /// rl::ReferenceDecodeGreedy: each kernel keeps the allocating path's
  /// per-element accumulation order (see LstmCell::StepInto /
  /// PointerAttention::PointerLogitsInto).
  ///
  /// Returns a reference to ws.sequences; entries [0, dags.size()) hold
  /// this call's results (later entries may be stale from a larger batch)
  /// and stay valid until the next decode on the same workspace.
  ///
  /// `cancel` (optional) is polled once per decode step; a fired token
  /// unwinds the whole batch with core::CancelledError.
  [[nodiscard]] const std::vector<std::vector<graph::NodeId>>&
  DecodeGreedyBatch(std::span<const graph::Dag* const> dags,
                    DecodeWorkspace& ws,
                    const core::CancelToken& cancel = {}) const;

  /// Tape-recorded stochastic decode for training.
  struct SampleResult {
    std::vector<graph::NodeId> sequence;
    nn::Ref log_prob_sum = -1;  // scalar (1,1) node on the tape
  };
  [[nodiscard]] SampleResult SampleWithTape(const graph::Dag& dag,
                                            nn::Tape& tape,
                                            std::mt19937_64& rng);

  [[nodiscard]] nn::ParamStore& Params() { return store_; }
  [[nodiscard]] const nn::ParamStore& Params() const { return store_; }
  [[nodiscard]] const PtrNetConfig& Config() const { return config_; }

  void Save(const std::string& path) const { store_.Save(path); }
  void Load(const std::string& path) { store_.Load(path); }

 private:
  PtrNetConfig config_;
  nn::ParamStore store_;
  std::mt19937_64 init_rng_;
  nn::LstmCell encoder_;
  nn::LstmCell decoder_;
  nn::PointerAttention attention_;
};

}  // namespace respect::rl
