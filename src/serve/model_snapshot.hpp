// Immutable served models for the online inference subsystem.
//
// A ModelSnapshot freezes the weights of a trained GraphSAGE (or GAT) model
// loaded from an nn/serialize checkpoint. Unlike the training-side layers,
// whose forward passes cache activations in member scratch (and are therefore
// not usable from concurrent worker threads), a snapshot's forward is
// stateless: all scratch lives in a caller-owned ForwardScratch, so any
// number of servers/workers can run inference against one shared snapshot.
//
// SnapshotHolder is the publication point: publish() atomically swaps the
// live snapshot under traffic, and get() hands each in-flight batch a
// shared_ptr that keeps *its* model alive until the batch completes — a new
// checkpoint can land mid-stream without ever serving a torn model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sampling/minibatch.hpp"
#include "util/matrix.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

enum class ModelKind { kSage, kGat, kRgcn };

struct ModelSpec {
  ModelKind kind = ModelKind::kSage;
  int feature_dim = 0;
  int hidden_dim = 0;
  int num_classes = 0;
  int num_layers = 2;
  float leaky_slope = 0.2f;  // GAT attention LeakyReLU slope
  int num_relations = 0;     // RGCN: edge-type count (must match the dataset)

  std::size_t in_dim(int layer) const;
  std::size_t out_dim(int layer) const;
};

/// Reusable per-worker scratch for forward_batch; grows to the largest batch
/// seen and is never shared between threads.
struct ForwardScratch {
  std::vector<DenseMatrix> acts;  // acts[l]: hidden layer l's stacked output
  std::vector<real_t> row;        // one neighbour-sum row (SAGE, RGCN)
  DenseMatrix z;                  // projected source rows (GAT)
  std::vector<real_t> src_term;   // a_src · z per source row (GAT)
  std::vector<real_t> scores;     // one destination's attention weights (GAT)
};

class ModelSnapshot {
 public:
  /// Loads a checkpoint written by save_checkpoint over the corresponding
  /// model's params() (SAGE: per layer weight then bias; GAT: per layer
  /// weight, attn_src, attn_dst). Shape mismatches throw std::runtime_error.
  static std::shared_ptr<const ModelSnapshot> from_checkpoint(const ModelSpec& spec,
                                                              const std::string& path,
                                                              std::uint64_t version);

  /// Freshly initialized weights (tests and cold-start serving).
  static std::shared_ptr<const ModelSnapshot> random(const ModelSpec& spec, std::uint64_t seed,
                                                     std::uint64_t version);

  /// Rebuilds a snapshot from flatten()'s layout — the receive side of the
  /// group-broadcast publication path. A size mismatch throws.
  static std::shared_ptr<const ModelSnapshot> from_flat(const ModelSpec& spec,
                                                        std::span<const real_t> flat,
                                                        std::uint64_t version);

  const ModelSpec& spec() const { return spec_; }
  std::uint64_t version() const { return version_; }
  std::size_t num_parameters() const;

  /// All weights in checkpoint order as one contiguous buffer — the wire
  /// format broadcast to replica ranks (see serve::broadcast_snapshot).
  std::vector<real_t> flatten() const;

  /// Runs the whole micro-batch through the frozen model in one pass.
  ///
  /// `batch` holds one independently sampled MiniBatch per request; `inputs`
  /// is the stacked feature gather for batch[0].input_vertices ++
  /// batch[1].input_vertices ++ ... ; `logits` receives one row per seed, in
  /// the same request-major order.
  ///
  /// Each destination row runs the training layers' own per-row functions
  /// (nn/layer_rows.hpp): the block neighbour sum through the Alg. 3 row
  /// kernel, then the layer's combine, affine row, attention or ReLU. A row
  /// reads only its own request's source rows, so a batched forward is
  /// bitwise-equal to per-request forwards; and at full fanout (blocks equal
  /// the in-CSR rows) it is bitwise the trainers' full-graph forward.
  void forward_batch(std::span<const MiniBatch> batch, ConstMatrixView inputs,
                     ForwardScratch& scratch, DenseMatrix& logits) const;

  /// Applies exactly one layer to stacked one-hop blocks: each MiniBatch in
  /// `batch` must hold a single block, `inputs` is the stacked layer-`layer`
  /// input gather (one row per block source vertex, request-major), and
  /// `out` receives one row per destination vertex. Runs through the same
  /// apply_layer as forward_batch, so a layer applied here is bitwise-equal
  /// to the corresponding step of a full forward — the embedding cache
  /// (EmbedForward) relies on that to mix cached and freshly computed hop-k
  /// embeddings.
  void forward_layer(int layer, std::span<const MiniBatch> batch, ConstMatrixView inputs,
                     ForwardScratch& scratch, DenseMatrix& out) const;

 private:
  struct LayerWeights {
    DenseMatrix weight;     // in x out (RGCN: the self-loop transform)
    DenseMatrix bias;       // 1 x out (SAGE, RGCN)
    DenseMatrix attn_src;   // 1 x out (GAT)
    DenseMatrix attn_dst;   // 1 x out (GAT)
    std::vector<DenseMatrix> rel_weight;  // in x out per relation (RGCN)
    bool relu = false;      // SAGE/RGCN hidden layers
  };

  ModelSnapshot(ModelSpec spec, std::uint64_t version) : spec_(spec), version_(version) {}

  /// Shapes every layer (zero weights, relu flags set) without drawing any
  /// random numbers — the base for every loader that overwrites the values.
  static std::shared_ptr<ModelSnapshot> allocate(const ModelSpec& spec, std::uint64_t version);

  /// Applies one layer to stacked rows: request i's block is
  /// batch[i].blocks[hop] (hop = the layer in forward_batch, 0 in
  /// forward_layer), `cur` the stacked source rows, `next` the stacked
  /// destination rows. Serial by design: workers run concurrently, so no
  /// OpenMP team may start here. Per kind, each destination runs:
  ///   SAGE  sum of sampled neighbours, (sum + h_v) / (deg + 1), affine,
  ///         ReLU on hidden layers (GraphSageLayer);
  ///   GAT   x·W and a_src·z once per source row, then per-destination
  ///         softmax attention (no self edge, degree-0 destinations
  ///         output zeros);
  ///   RGCN  self affine, then per relation ascending the mean of that
  ///         relation's sampled neighbours times W_r, accumulated even for
  ///         an empty relation, then ReLU on hidden layers (RgcnLayer;
  ///         blocks need relation labels from typed sampling).
  void apply_layer(const LayerWeights& lw, std::span<const MiniBatch> batch, std::size_t hop,
                   ConstMatrixView cur, ForwardScratch& scratch, DenseMatrix& next) const;

  ModelSpec spec_;
  std::uint64_t version_ = 0;
  std::vector<LayerWeights> layers_;
};

/// Atomic publication point for the live snapshot: readers get a shared_ptr
/// (their model survives a concurrent publish), writers swap indivisibly.
class SnapshotHolder {
 public:
  void publish(std::shared_ptr<const ModelSnapshot> snapshot);
  std::shared_ptr<const ModelSnapshot> get() const;

  /// Hook invoked after every publish, outside the holder lock, with the new
  /// snapshot's version — the invalidation point version-keyed caches (the
  /// serving embedding cache) wire into so a hot-swap drops stale entries.
  void set_on_publish(std::function<void(std::uint64_t version)> hook);

 private:
  mutable util::Mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_ GUARDED_BY(mutex_);
  std::function<void(std::uint64_t)> on_publish_ GUARDED_BY(mutex_);
};

}  // namespace distgnn::serve
