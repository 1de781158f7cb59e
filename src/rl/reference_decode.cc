#include "rl/reference_decode.h"

#include <cmath>

#include "graph/topology.h"
#include "nn/params.h"
#include "nn/tensor.h"
#include "rl/embedding.h"

namespace respect::rl {
namespace {

// Verbatim copies of the pre-optimization helpers (ptrnet.cc / lstm.cc /
// attention.cc as of the allocate-per-op implementation).  Do not "clean
// up": bit-identity with the fused path is the whole point.

int ArgmaxIndex(const nn::Tensor& probs) {
  int best = -1;
  float best_p = -1.0f;
  for (int j = 0; j < probs.Cols(); ++j) {
    if (probs.At(0, j) > best_p) {
      best_p = probs.At(0, j);
      best = j;
    }
  }
  return best;
}

struct LstmState {
  nn::Tensor h;
  nn::Tensor c;
};

/// The original LstmCell::Step, driven off the ParamStore by name.
LstmState LstmStep(const nn::ParamStore& store, const std::string& prefix,
                   const nn::Tensor& x, const LstmState& prev, int d) {
  const nn::Tensor z =
      nn::Add(nn::Add(nn::MatMul(store.Value(prefix + ".Wx"), x),
                      nn::MatMul(store.Value(prefix + ".Wh"), prev.h)),
              store.Value(prefix + ".b"));
  const nn::Tensor i = nn::Sigmoid(nn::SliceRows(z, 0, d));
  const nn::Tensor f = nn::Sigmoid(nn::SliceRows(z, d, 2 * d));
  const nn::Tensor g = nn::Tanh(nn::SliceRows(z, 2 * d, 3 * d));
  const nn::Tensor o = nn::Sigmoid(nn::SliceRows(z, 3 * d, 4 * d));
  LstmState next;
  next.c = nn::Add(nn::Mul(f, prev.c), nn::Mul(i, g));
  next.h = nn::Mul(o, nn::Tanh(next.c));
  return next;
}

/// The original fused attention-score kernel (attention.cc).
void ScoreColumns(const nn::Tensor& ref, const nn::Tensor& q,
                  const nn::Tensor& v, nn::Tensor& scores) {
  const int d = ref.Rows();
  const int n = ref.Cols();
  for (int j = 0; j < n; ++j) scores.At(0, j) = 0.0f;
  for (int i = 0; i < d; ++i) {
    const float qi = q.At(i, 0);
    const float vi = v.At(i, 0);
    const float* row = ref.Data() + static_cast<std::int64_t>(i) * n;
    float* out = scores.Data();
    for (int j = 0; j < n; ++j) {
      out[j] += vi * std::tanh(row[j] + qi);
    }
  }
}

/// The original PointerAttention::PointerLogits inference path.
nn::Tensor PointerLogits(const nn::ParamStore& store,
                         const nn::Tensor& contexts,
                         const nn::Tensor& glimpse_ref,
                         const nn::Tensor& pointer_ref, const nn::Tensor& h,
                         const std::vector<bool>& valid, int d) {
  constexpr float kLogitClip = 10.0f;
  const int n = contexts.Cols();

  const nn::Tensor q_g = nn::Add(nn::MatMul(store.Value("attention.Wq_g"), h),
                                 store.Value("attention.b_g"));
  nn::Tensor scores_g(1, n);
  ScoreColumns(glimpse_ref, q_g, store.Value("attention.v_g"), scores_g);
  const nn::Tensor attn = nn::MaskedSoftmax(scores_g, valid);
  nn::Tensor glimpse(d, 1);
  for (int i = 0; i < d; ++i) {
    const float* row = contexts.Data() + static_cast<std::int64_t>(i) * n;
    float acc = 0.0f;
    for (int j = 0; j < n; ++j) acc += row[j] * attn.At(0, j);
    glimpse.At(i, 0) = acc;
  }

  const nn::Tensor q_p =
      nn::Add(nn::MatMul(store.Value("attention.Wq_p"), glimpse),
              store.Value("attention.b_p"));
  nn::Tensor u(1, n);
  ScoreColumns(pointer_ref, q_p, store.Value("attention.v_p"), u);
  for (int j = 0; j < n; ++j) {
    u.At(0, j) = kLogitClip * std::tanh(u.At(0, j));
  }
  return u;
}

std::vector<bool> StepMask(MaskingMode masking, const std::vector<bool>& picked,
                           const std::vector<int>& unpicked_parents) {
  const int n = static_cast<int>(picked.size());
  std::vector<bool> valid(n);
  for (int j = 0; j < n; ++j) {
    valid[j] = !picked[j] && (masking == MaskingMode::kVisitedOnly ||
                              unpicked_parents[j] == 0);
  }
  return valid;
}

}  // namespace

/// The original greedy PtrNetAgent decode.
std::vector<graph::NodeId> ReferenceDecodeGreedy(const PtrNetAgent& agent,
                                                 const graph::Dag& dag) {
  const nn::ParamStore& store = agent.Params();
  const PtrNetConfig& config = agent.Config();
  const int d = config.hidden_dim;

  const graph::TopoInfo topo = graph::AnalyzeTopology(dag);
  const int n = dag.NodeCount();
  const std::vector<int> pos = graph::OrderPositions(topo.order, n);

  const nn::Tensor emb = EmbedGraph(dag, config.embedding);
  const nn::Tensor x_all = nn::AddBroadcastCol(
      nn::MatMul(store.Value("input.W"), emb), store.Value("input.b"));

  LstmState enc{nn::Tensor::Zeros(d, 1), nn::Tensor::Zeros(d, 1)};
  std::vector<nn::Tensor> contexts;
  contexts.reserve(n);
  for (int j = 0; j < n; ++j) {
    const graph::NodeId v = topo.order[j];
    enc = LstmStep(store, "encoder", nn::SliceCols(x_all, v, v + 1), enc, d);
    contexts.push_back(enc.h);
  }
  const nn::Tensor C = nn::ConcatCols(contexts);
  const nn::Tensor glimpse_ref = nn::MatMul(store.Value("attention.Wref_g"), C);
  const nn::Tensor pointer_ref = nn::MatMul(store.Value("attention.Wref_p"), C);

  std::vector<bool> picked(n, false);
  std::vector<int> unpicked_parents(n, 0);
  for (int j = 0; j < n; ++j) {
    unpicked_parents[j] = static_cast<int>(dag.Parents(topo.order[j]).size());
  }

  LstmState dec{enc.h, enc.c};
  nn::Tensor d_input = store.Value("decoder.d0");
  std::vector<graph::NodeId> sequence;
  sequence.reserve(n);
  for (int t = 0; t < n; ++t) {
    dec = LstmStep(store, "decoder", d_input, dec, d);
    const std::vector<bool> valid =
        StepMask(config.masking, picked, unpicked_parents);
    const nn::Tensor logits =
        PointerLogits(store, C, glimpse_ref, pointer_ref, dec.h, valid, d);
    const nn::Tensor probs = nn::MaskedSoftmax(logits, valid);
    const int j = ArgmaxIndex(probs);
    const graph::NodeId v = topo.order[j];
    picked[j] = true;
    for (const graph::NodeId c : dag.Children(v)) {
      --unpicked_parents[pos[c]];
    }
    sequence.push_back(v);
    d_input = nn::SliceCols(x_all, v, v + 1);
  }
  return sequence;
}

}  // namespace respect::rl
