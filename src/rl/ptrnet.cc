#include "rl/ptrnet.h"

#include <algorithm>
#include <stdexcept>

#include "graph/topology.h"

namespace respect::rl {
namespace {

/// Samples an index from a (1, n) probability row.
int SampleIndex(const nn::Tensor& probs, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double r = unit(rng);
  int last_valid = -1;
  for (int j = 0; j < probs.Cols(); ++j) {
    const double p = probs.At(0, j);
    if (p <= 0.0) continue;
    last_valid = j;
    r -= p;
    if (r <= 0.0) return j;
  }
  if (last_valid < 0) {
    throw std::logic_error("SampleIndex: degenerate distribution");
  }
  return last_valid;  // numeric slack lands on the last valid entry
}

/// Valid-node mask for the tape-recorded training path (the inference path
/// writes the workspace's packed byte mask).
std::vector<bool> StepMaskVec(MaskingMode masking,
                              const std::vector<bool>& picked,
                              const std::vector<int>& unpicked_parents) {
  const int n = static_cast<int>(picked.size());
  std::vector<bool> valid(n);
  for (int j = 0; j < n; ++j) {
    valid[j] = !picked[j] && (masking == MaskingMode::kVisitedOnly ||
                              unpicked_parents[j] == 0);
  }
  return valid;
}

/// Argmax over the column slice [c0, c0+n), returning the index RELATIVE to
/// c0: ascending strictly-greater scan (first max wins), so every graph of
/// a batch picks exactly what the reference argmax would.  Throws when
/// nothing is pickable (e.g. an all-NaN probability row), like SampleIndex.
int ArgmaxIndexRange(const nn::Tensor& probs, int c0, int n) {
  int best = -1;
  float best_p = -1.0f;
  for (int j = 0; j < n; ++j) {
    if (probs.At(0, c0 + j) > best_p) {
      best_p = probs.At(0, c0 + j);
      best = j;
    }
  }
  if (best < 0) {
    throw std::logic_error("ArgmaxIndexRange: degenerate distribution");
  }
  return best;
}

/// True iff the Kahn order `order` is the only topological order of `dag`.
/// A second order exists iff some consecutive pair (u, w) of `order` is not
/// an edge: w's parents then all precede u, so swapping u and w stays
/// topological.  O(V+E).
bool HasOneOrder(const graph::Dag& dag,
                 const std::vector<graph::NodeId>& order) {
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const std::span<const graph::NodeId> children = dag.Children(order[i]);
    if (std::find(children.begin(), children.end(), order[i + 1]) ==
        children.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

PtrNetAgent::PtrNetAgent(const PtrNetConfig& config)
    : config_(config),
      init_rng_(config.init_seed),
      encoder_(store_, "encoder", config.hidden_dim, config.hidden_dim,
               init_rng_),
      decoder_(store_, "decoder", config.hidden_dim, config.hidden_dim,
               init_rng_),
      attention_(store_, "attention", config.hidden_dim, init_rng_) {
  store_.GetOrCreate("input.W", config_.hidden_dim, kFeatureDim, init_rng_);
  store_.GetOrCreate("input.b", config_.hidden_dim, 1, init_rng_);
  store_.GetOrCreate("decoder.d0", config_.hidden_dim, 1, init_rng_);
}

std::vector<graph::NodeId> PtrNetAgent::DecodeGreedy(
    const graph::Dag& dag) const {
  DecodeWorkspace ws;
  return DecodeGreedy(dag, ws);
}

const std::vector<graph::NodeId>& PtrNetAgent::DecodeGreedy(
    const graph::Dag& dag, DecodeWorkspace& ws,
    const core::CancelToken& cancel) const {
  const graph::Dag* const one[] = {&dag};
  return DecodeGreedyBatch(one, ws, cancel)[0];
}

const std::vector<std::vector<graph::NodeId>>& PtrNetAgent::DecodeGreedyBatch(
    std::span<const graph::Dag* const> dags, DecodeWorkspace& ws,
    const core::CancelToken& cancel) const {
  const int batch = static_cast<int>(dags.size());
  if (batch <= 0) {
    throw std::invalid_argument("DecodeGreedyBatch: empty batch");
  }
  for (const graph::Dag* dag : dags) {
    if (dag == nullptr || dag->NodeCount() != dags[0]->NodeCount()) {
      throw std::invalid_argument(
          "DecodeGreedyBatch: graphs must be non-null with one node count");
    }
  }
  cancel.ThrowIfCancelled("rl decode");
  const int n = dags[0]->NodeCount();
  const int d = config_.hidden_dim;
  const bool ready_set = config_.masking == MaskingMode::kReadySet;
  ws.ReserveGraphs(n, batch);

  // Input queue q follows the ASAP topological order (§III-A).  Under the
  // ready-set mask a graph with one topological order has no choice to
  // make: its sequence is its Kahn order, and it never enters the network.
  // The others become the lanes of a lock-step over (possibly) fewer
  // graphs — bit-identical, since every kernel is column-independent.
  int lanes = 0;
  for (int g = 0; g < batch; ++g) {
    graph::AnalyzeTopologyInto(*dags[g], ws.topo_scratch, ws.topos[g]);
    const std::vector<graph::NodeId>& order = ws.topos[g].order;
    if (ready_set && HasOneOrder(*dags[g], order)) {
      ws.sequences[g].assign(order.begin(), order.end());
    } else {
      ws.lane_graph[lanes++] = g;
    }
  }
  if (lanes == 0) return ws.sequences;
  const int total = n * lanes;
  ws.Reserve(d, n, lanes);

  // Packed embedding: emb column l·n+v is lane l's node-v feature vector,
  // so every downstream packed column l·n+v matches a one-graph decode's
  // column v bit for bit (the shared MatMul kernel is column-independent).
  // A single lane embeds straight into emb.
  float* embd = ws.emb.Data();
  for (int l = 0; l < lanes; ++l) {
    const int g = ws.lane_graph[l];
    ws.pos[g].assign(n, -1);
    for (int j = 0; j < n; ++j) ws.pos[g][ws.topos[g].order[j]] = j;
    if (lanes == 1) {
      EmbedGraphInto(*dags[g], config_.embedding, ws.topos[g], ws.emb);
      continue;
    }
    EmbedGraphInto(*dags[g], config_.embedding, ws.topos[g], ws.emb_one);
    const float* one = ws.emb_one.Data();
    for (int i = 0; i < kFeatureDim; ++i) {
      std::copy(one + std::int64_t{i} * n, one + std::int64_t{i} * n + n,
                embd + std::int64_t{i} * total + std::int64_t{l} * n);
    }
  }
  nn::MatMulInto(store_.Value("input.W"), ws.emb, ws.x_all);
  nn::AddBroadcastColInPlace(ws.x_all, store_.Value("input.b"));

  // Hoisted input projections over the whole packed batch: one GEMM per
  // LSTM covers every step's Wx·x, so the recurrent loops below pay only
  // the Wh·h product per step.
  nn::MatMulInto(encoder_.InputWeight(), ws.x_all, ws.zx_enc);
  nn::MatMulInto(decoder_.InputWeight(), ws.x_all, ws.zx_dec);
  nn::MatMulInto(decoder_.InputWeight(), store_.Value("decoder.d0"), ws.zx_d0);
  encoder_.RecurrentPanelInto(ws.enc_wh_t);
  decoder_.RecurrentPanelInto(ws.dec_wh_t);

  // Lock-stepped encoder sweep: one StepInto per position, contexts
  // scattered to column l·n+j (lane l, position j).
  ws.state.h.Fill(0.0f);
  ws.state.c.Fill(0.0f);
  float* ctx = ws.contexts.Data();
  for (int j = 0; j < n; ++j) {
    for (int l = 0; l < lanes; ++l) {
      ws.zx_cols[l] = l * n + ws.topos[ws.lane_graph[l]].order[j];
    }
    encoder_.StepInto(ws.zx_enc, ws.zx_cols.data(), lanes, ws.enc_wh_t,
                      ws.gates, ws.state);
    const float* h = ws.state.h.Data();
    for (int i = 0; i < d; ++i) {
      const float* hrow = h + std::int64_t{i} * lanes;
      float* crow = ctx + std::int64_t{i} * total + j;
      for (int l = 0; l < lanes; ++l) crow[std::int64_t{l} * n] = hrow[l];
    }
  }
  attention_.PrecomputeInto(ws.contexts, ws.refs);

  // Decoder bookkeeping, packed position-indexed; the encoder's final
  // (d, L) state carries over as the decoder's initial state in place.
  for (int l = 0; l < lanes; ++l) {
    const int g = ws.lane_graph[l];
    const int c0 = l * n;
    ws.ready_count[l] = 0;
    ws.chain_end[l] = 0;
    for (int j = 0; j < n; ++j) {
      const int parents =
          static_cast<int>(dags[g]->Parents(ws.topos[g].order[j]).size());
      ws.unpicked_parents[c0 + j] = parents;
      ws.valid[c0 + j] = !ready_set || parents == 0 ? 1 : 0;
      ws.ready_count[l] += ws.valid[c0 + j];
    }
    ws.sequences[g].clear();
  }

  // Takes position j of lane l: clears its mask byte and, under the
  // ready-set mask, sets the byte of every child it leaves parentless.
  const auto pick = [&](int l, int j) {
    const int g = ws.lane_graph[l];
    const int c0 = l * n;
    const graph::NodeId v = ws.topos[g].order[j];
    ws.valid[c0 + j] = 0;
    --ws.ready_count[l];
    if (ready_set) {
      for (const graph::NodeId c : dags[g]->Children(v)) {
        const int p = c0 + ws.pos[g][c];
        if (--ws.unpicked_parents[p] == 0) {
          ws.valid[p] = 1;
          ++ws.ready_count[l];
        }
      }
    }
    ws.sequences[g].push_back(v);
    ws.zx_cols[l] = c0 + v;
  };

  // Lane l has one valid node at step t, so its pick there is forced.
  // Replays Kahn from that node on a scratch copy of the lane's parent
  // counts, recording each forced position until two or more nodes are
  // ready at once (the lane's next choice step) or the graph runs out.
  // Under the visited-only mask one valid node is the last unpicked one.
  const auto replay = [&](int l, int t) {
    const int g = ws.lane_graph[l];
    const int c0 = l * n;
    const std::uint8_t* lane_valid = ws.valid.data() + c0;
    int j = static_cast<int>(std::find(lane_valid, lane_valid + n, 1) -
                             lane_valid);
    if (ready_set) {
      std::copy_n(ws.unpicked_parents.begin() + c0, n,
                  ws.replay_parents.begin());
    }
    int step = t;
    for (int ready = 1; ready == 1;) {
      ws.forced[c0 + step++] = j;
      if (!ready_set) break;
      ready = 0;
      for (const graph::NodeId c : dags[g]->Children(ws.topos[g].order[j])) {
        if (--ws.replay_parents[ws.pos[g][c]] == 0) {
          ++ready;
          j = ws.pos[g][c];
        }
      }
    }
    ws.chain_end[l] = step;
  };

  // Forced steps run no attention; steps after every lane's last choice
  // run no network at all.  The decoder still steps through forced steps
  // before a later choice, since its state feeds that choice.
  const nn::Tensor* zx = &ws.zx_d0;  // first input: shared d0 projection
  for (int l = 0; l < lanes; ++l) ws.zx_cols[l] = 0;
  for (int t = 0; t < n; ++t) {
    bool choice = false;
    bool settled = true;
    for (int l = 0; l < lanes; ++l) {
      if (ws.ready_count[l] == 1 && ws.chain_end[l] <= t) replay(l, t);
      choice = choice || ws.ready_count[l] > 1;
      settled = settled && ws.chain_end[l] == n;
    }
    if (settled) {
      for (int l = 0; l < lanes; ++l) {
        const int g = ws.lane_graph[l];
        for (int s = t; s < n; ++s) {
          ws.sequences[g].push_back(ws.topos[g].order[ws.forced[l * n + s]]);
        }
      }
      break;
    }
    cancel.ThrowIfCancelled("rl decode step");
    decoder_.StepInto(*zx, ws.zx_cols.data(), lanes, ws.dec_wh_t, ws.gates,
                      ws.state);
    if (choice) {
      attention_.PointerLogitsInto(ws.contexts, ws.refs, ws.state.h, ws.valid,
                                   n, lanes, ws.attn, ws.logits);
    }
    for (int l = 0; l < lanes; ++l) {
      const int c0 = l * n;
      if (ws.ready_count[l] == 1) {
        pick(l, ws.forced[c0 + t]);
        continue;
      }
      nn::MaskedSoftmaxSliceInto(ws.logits, ws.valid, c0, n, ws.probs);
      pick(l, ArgmaxIndexRange(ws.probs, c0, n));
    }
    zx = &ws.zx_dec;
  }
  return ws.sequences;
}

PtrNetAgent::SampleResult PtrNetAgent::SampleWithTape(const graph::Dag& dag,
                                                      nn::Tape& tape,
                                                      std::mt19937_64& rng) {
  const graph::TopoInfo topo = graph::AnalyzeTopology(dag);
  const int n = dag.NodeCount();
  const std::vector<int> pos = graph::OrderPositions(topo.order, n);

  const nn::Ref w_in = tape.Param(store_.Value("input.W"),
                                  &store_.Grad("input.W"));
  const nn::Ref b_in = tape.Param(store_.Value("input.b"),
                                  &store_.Grad("input.b"));
  const nn::Ref emb = tape.Constant(EmbedGraph(dag, config_.embedding));
  const nn::Ref x_all =
      tape.AddBroadcastCol(tape.MatMul(w_in, emb), b_in);

  nn::LstmCell::TapeState enc = encoder_.InitialState(tape);
  std::vector<nn::Ref> contexts;
  contexts.reserve(n);
  for (int j = 0; j < n; ++j) {
    const graph::NodeId v = topo.order[j];
    enc = encoder_.Step(tape, tape.SliceCols(x_all, v, v + 1), enc);
    contexts.push_back(enc.h);
  }
  const nn::Ref C = tape.ConcatCols(contexts);
  nn::PointerAttention::TapeRefs refs = attention_.Precompute(tape, C);

  std::vector<bool> picked(n, false);
  std::vector<int> unpicked_parents(n, 0);
  for (int j = 0; j < n; ++j) {
    unpicked_parents[j] = static_cast<int>(dag.Parents(topo.order[j]).size());
  }

  nn::LstmCell::TapeState dec{enc.h, enc.c};
  nn::Ref d_input = tape.Param(store_.Value("decoder.d0"),
                               &store_.Grad("decoder.d0"));
  SampleResult result;
  result.sequence.reserve(n);
  nn::Ref log_prob_sum = -1;
  for (int t = 0; t < n; ++t) {
    dec = decoder_.Step(tape, d_input, dec);
    const std::vector<bool> valid =
        StepMaskVec(config_.masking, picked, unpicked_parents);
    const nn::Ref logits = attention_.PointerLogits(tape, refs, dec.h, valid);
    const nn::Tensor probs = nn::MaskedSoftmax(tape.Value(logits), valid);
    const int j = SampleIndex(probs, rng);
    const nn::Ref logp = tape.PickLogSoftmax(logits, valid, j);
    log_prob_sum = (log_prob_sum < 0) ? logp : tape.Add(log_prob_sum, logp);

    const graph::NodeId v = topo.order[j];
    picked[j] = true;
    for (const graph::NodeId c : dag.Children(v)) {
      --unpicked_parents[pos[c]];
    }
    result.sequence.push_back(v);
    d_input = tape.SliceCols(x_all, v, v + 1);
  }
  result.log_prob_sum = log_prob_sum;
  return result;
}

}  // namespace respect::rl
