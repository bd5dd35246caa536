#include "serve/embed_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace distgnn::serve {

Rng embed_rng(std::uint64_t sample_seed, vid_t vertex, int layer) {
  // Independent streams per (seed, vertex, layer): the vertex id is spread
  // by splitmix64 exactly as in request_rng, then the layer index is folded
  // through a second finalize so adjacent layers decorrelate.
  const std::uint64_t mixed = sample_seed ^ splitmix64(static_cast<std::uint64_t>(vertex));
  return Rng(splitmix64(mixed + static_cast<std::uint64_t>(layer)));
}

std::vector<CacheCounters> embed_cache_counters(obs::MetricsRegistry& registry,
                                                const std::string& layer, int num_levels,
                                                const obs::Labels& labels) {
  std::vector<CacheCounters> levels;
  for (int l = 1; l <= num_levels; ++l) {
    obs::Labels level{{"level", std::to_string(l)}};
    level.insert(level.end(), labels.begin(), labels.end());
    levels.emplace_back(registry, layer, "embed", std::move(level));
  }
  return levels;
}

EmbedWork::EmbedWork(obs::MetricsRegistry& registry, const std::string& layer,
                     const obs::Labels& labels)
    : requests(registry.counter("distgnn_" + layer + "_embed_requests_total", labels)),
      rows_computed(registry.counter("distgnn_" + layer + "_embed_rows_computed_total", labels)) {}

EmbedCache::EmbedCache(const ModelSpec& spec, std::uint64_t capacity_bytes,
                       std::vector<CacheCounters> levels, int num_shards,
                       std::uint64_t max_entries_per_layer) {
  if (spec.num_layers < 1) throw std::invalid_argument("EmbedCache: num_layers must be >= 1");
  if (num_shards < 1) throw std::invalid_argument("EmbedCache: need >= 1 shard");
  if (levels.size() != static_cast<std::size_t>(spec.num_layers))
    throw std::invalid_argument("EmbedCache: need one CacheCounters per layer");
  const std::uint64_t per_layer_bytes =
      capacity_bytes / static_cast<std::uint64_t>(spec.num_layers);
  dims_.reserve(static_cast<std::size_t>(spec.num_layers));
  layers_.reserve(static_cast<std::size_t>(spec.num_layers));
  for (int l = 1; l <= spec.num_layers; ++l) {
    const std::size_t dim = spec.out_dim(l - 1);
    if (dim == 0) throw std::invalid_argument("EmbedCache: layer dims must be > 0");
    const std::uint64_t row_bytes = static_cast<std::uint64_t>(dim) * sizeof(real_t);
    std::uint64_t entries = per_layer_bytes / row_bytes;
    if (max_entries_per_layer > 0) entries = std::min(entries, max_entries_per_layer);
    entries = std::max<std::uint64_t>(static_cast<std::uint64_t>(num_shards), entries);
    dims_.push_back(dim);
    layers_.push_back(std::make_unique<LayerLru>(
        entries, num_shards, row_bytes,
        std::vector<CacheCounters>{levels[static_cast<std::size_t>(l - 1)]}));
  }
}

EmbedCache::LayerLru& EmbedCache::layer_lru(int layer) {
  if (layer < 1 || layer > num_layers())
    throw std::out_of_range("EmbedCache: layer out of range");
  return *layers_[static_cast<std::size_t>(layer - 1)];
}

std::size_t EmbedCache::dim(int layer) const {
  if (layer < 1 || layer > num_layers())
    throw std::out_of_range("EmbedCache: layer out of range");
  return dims_[static_cast<std::size_t>(layer - 1)];
}

bool EmbedCache::fits(const ModelSpec& spec) const {
  if (spec.num_layers != num_layers()) return false;
  for (int l = 1; l <= num_layers(); ++l)
    if (dims_[static_cast<std::size_t>(l - 1)] != spec.out_dim(l - 1)) return false;
  return true;
}

bool EmbedCache::lookup(int layer, vid_t vertex, std::uint64_t version, real_t* out,
                        std::uint64_t epoch) {
  const std::size_t d = dim(layer);
  const Key key{version, epoch, static_cast<std::uint64_t>(vertex)};
  return layer_lru(layer).lookup(/*space=*/0, key, [&](const std::vector<real_t>& row) {
    std::copy(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(d), out);
  });
}

void EmbedCache::insert(int layer, vid_t vertex, std::uint64_t version, const real_t* row,
                        std::uint64_t epoch) {
  const std::size_t d = dim(layer);
  const Key key{version, epoch, static_cast<std::uint64_t>(vertex)};
  layer_lru(layer).insert(/*space=*/0, key,
                          [&](std::vector<real_t>& slot) { slot.assign(row, row + d); });
}

void EmbedCache::invalidate() {
  for (auto& layer : layers_) layer->invalidate();
}

EmbedCache::EpochAdvance EmbedCache::advance_epoch(
    std::uint64_t new_epoch, const std::vector<std::vector<vid_t>>& dirty_layers) {
  EpochAdvance out;
  std::unordered_set<std::uint64_t> dirty;
  for (int l = 1; l <= num_layers(); ++l) {
    dirty.clear();
    if (static_cast<std::size_t>(l) <= dirty_layers.size())
      for (const vid_t v : dirty_layers[static_cast<std::size_t>(l - 1)])
        dirty.insert(static_cast<std::uint64_t>(v));
    layer_lru(l).retag(/*space=*/0, [&](Key& key) {
      if (dirty.count(key.vertex) > 0) {
        ++out.evicted;
        return false;
      }
      if (key.epoch != new_epoch) key.epoch = new_epoch;
      ++out.retained;
      return true;
    });
  }
  return out;
}

// ----------------------------------------------------------------- evaluator

EmbedForward::EmbedForward(const Dataset& dataset, std::vector<int> fanouts,
                           std::uint64_t sample_seed, EmbedCache* cache,
                           ShardedFeatureCache* feature_cache, EmbedWork* work)
    : dataset_(dataset),
      fanouts_(std::move(fanouts)),
      sample_seed_(sample_seed),
      cache_(cache),
      feature_cache_(feature_cache),
      work_(work) {
  if (fanouts_.empty()) throw std::invalid_argument("EmbedForward: fanouts empty");
  if (cache_ && cache_->num_layers() != static_cast<int>(fanouts_.size()))
    throw std::invalid_argument("EmbedForward: cache depth != fanouts depth");
  if (feature_cache_ &&
      feature_cache_->dim() != static_cast<std::size_t>(dataset_.feature_dim()))
    throw std::invalid_argument("EmbedForward: feature cache dim != dataset feature_dim");
}

std::uint32_t EmbedForward::resolve(int level, vid_t v, std::uint64_t version, std::size_t dim) {
  Level& lv = levels_[static_cast<std::size_t>(level)];
  const auto [it, inserted] = lv.index.emplace(v, static_cast<std::uint32_t>(lv.index.size()));
  if (!inserted) return it->second;
  const std::uint32_t row = it->second;
  lv.values.resize(lv.values.size() + dim);
  real_t* dst = lv.values.data() + static_cast<std::size_t>(row) * dim;
  if (level == 0) {
    // h_0 is the raw feature row, through the feature cache when attached.
    const auto copy_row = [&](real_t* out) {
      const real_t* src = dataset_.features.row(static_cast<std::size_t>(v));
      std::copy(src, src + dim, out);
    };
    if (feature_cache_)
      feature_cache_->get_or_fill(/*space=*/0, static_cast<std::uint64_t>(v), dst, copy_row);
    else
      copy_row(dst);
  } else if (cache_ && cache_->lookup(level, v, version, dst, graph_epoch_)) {
    // Hit: v's entire hop-`level` subtree is pruned — nothing goes pending.
  } else {
    lv.pending.push_back(v);
    lv.pending_row.push_back(row);
  }
  return row;
}

void EmbedForward::infer(const ModelSnapshot& snapshot, std::span<const vid_t> seeds,
                         DenseMatrix& logits, std::uint64_t graph_epoch) {
  graph_epoch_ = graph_epoch;
  const ModelSpec& spec = snapshot.spec();
  const int num_layers = spec.num_layers;
  if (num_layers != static_cast<int>(fanouts_.size()))
    throw std::invalid_argument("EmbedForward: fanouts depth != model layers");
  if (spec.feature_dim != dataset_.feature_dim())
    throw std::invalid_argument("EmbedForward: snapshot feature_dim != dataset");
  const auto dim_of = [&](int level) {
    return level == 0 ? static_cast<std::size_t>(spec.feature_dim) : spec.out_dim(level - 1);
  };
  if (cache_ && !cache_->fits(spec))
    throw std::invalid_argument("EmbedForward: cache dims != snapshot dims");
  const std::uint64_t version = snapshot.version();

  levels_.resize(static_cast<std::size_t>(num_layers) + 1);
  for (Level& lv : levels_) lv.clear();
  std::uint64_t rows_computed = 0;

  // Downward pass: discover the memoized DAG. Seeds sit at the output level;
  // expanding a level's pending vertices only ever touches the level below,
  // so one sweep from L to 1 completes the work lists.
  for (const vid_t s : seeds) {
    if (s < 0 || s >= dataset_.num_vertices())
      throw std::out_of_range("EmbedForward: vertex id out of range");
    resolve(num_layers, s, version, dim_of(num_layers));
  }
  const CsrMatrix& in_csr = dataset_.graph.in_csr();
  for (int l = num_layers; l >= 1; --l) {
    Level& lv = levels_[static_cast<std::size_t>(l)];
    lv.blocks.reserve(lv.pending.size());
    const int fanout[1] = {fanouts_[static_cast<std::size_t>(l - 1)]};
    const std::size_t child_dim = dim_of(l - 1);
    for (std::size_t i = 0; i < lv.pending.size(); ++i) {
      const vid_t u = lv.pending[i];
      Rng rng = embed_rng(sample_seed_, u, l - 1);
      const vid_t seed1[1] = {u};
      lv.blocks.push_back(sample_minibatch(in_csr, seed1, fanout, rng));
      for (const vid_t child : lv.blocks.back().input_vertices)
        resolve(l - 1, child, version, child_dim);
    }
  }

  // Upward pass: one stacked forward_layer call per level, so fresh rows
  // keep micro-batching's GEMM amortization even mid-cache-miss.
  for (int l = 1; l <= num_layers; ++l) {
    Level& lv = levels_[static_cast<std::size_t>(l)];
    if (lv.pending.empty()) continue;
    const Level& below = levels_[static_cast<std::size_t>(l - 1)];
    const std::size_t in_dim = dim_of(l - 1);
    std::size_t rows = 0;
    for (const MiniBatch& mb : lv.blocks) rows += mb.input_vertices.size();
    inputs_.resize_discard(rows, in_dim);
    std::size_t row = 0;
    for (const MiniBatch& mb : lv.blocks)
      for (const vid_t child : mb.input_vertices) {
        const real_t* src =
            below.values.data() + static_cast<std::size_t>(below.index.at(child)) * in_dim;
        std::copy(src, src + in_dim, inputs_.row(row++));
      }
    snapshot.forward_layer(l - 1, lv.blocks, inputs_.cview(), fwd_scratch_, layer_out_);

    const std::size_t out_dim = dim_of(l);
    for (std::size_t i = 0; i < lv.pending.size(); ++i) {
      real_t* dst = lv.values.data() + static_cast<std::size_t>(lv.pending_row[i]) * out_dim;
      std::copy(layer_out_.row(i), layer_out_.row(i) + out_dim, dst);
      if (cache_) cache_->insert(l, lv.pending[i], version, dst, graph_epoch_);
      ++rows_computed;
    }
  }

  // Emit one row per seed (duplicates share the memoized row).
  const Level& top = levels_[static_cast<std::size_t>(num_layers)];
  const std::size_t out_dim = dim_of(num_layers);
  logits.resize_discard(seeds.size(), out_dim);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const real_t* src =
        top.values.data() + static_cast<std::size_t>(top.index.at(seeds[i])) * out_dim;
    std::copy(src, src + out_dim, logits.row(i));
  }
  if (work_) {
    work_->requests.add(seeds.size());
    work_->rows_computed.add(rows_computed);
  }
}

}  // namespace distgnn::serve
