#include "sampling/distributed_sampled_trainer.hpp"

#include "util/parallel.hpp"

#include <array>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "comm/world.hpp"

namespace distgnn {

DistSampledResult train_distributed_sampled(const Dataset& dataset, SampledTrainConfig config,
                                            int num_ranks, int epochs, int threads_per_rank) {
  if (num_ranks < 1 || epochs < 1)
    throw std::invalid_argument("train_distributed_sampled: num_ranks and epochs must be >= 1");
  DistSampledResult result;

  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  const int threads =
      threads_per_rank > 0 ? threads_per_rank : std::max(1, hw_threads / num_ranks);

  // Equal-size shards of the training vertices keep per-epoch batch counts
  // identical across ranks, so the per-batch AllReduce always lines up.
  // (The few remainder vertices are dropped, as documented.)
  std::vector<vid_t> train;
  for (vid_t v = 0; v < dataset.num_vertices(); ++v)
    if (dataset.train_mask[static_cast<std::size_t>(v)]) train.push_back(v);
  const std::size_t shard = train.size() / static_cast<std::size_t>(num_ranks);

  World world(num_ranks);
  world.run([&](Communicator& comm) {
    par::set_num_threads(threads);

    // Replicas share the seed; gradients are averaged per batch.
    SampledTrainConfig cfg = config;
    SampledSageTrainer trainer(dataset, cfg);
    const std::size_t begin = static_cast<std::size_t>(comm.rank()) * shard;
    trainer.restrict_train_vertices(
        {train.begin() + static_cast<std::ptrdiff_t>(begin),
         train.begin() + static_cast<std::ptrdiff_t>(begin + shard)});

    trainer.set_grad_hook([&](std::span<ParamRef> params) {
      allreduce_gradients(comm, params);
      const real_t inv = 1.0f / static_cast<real_t>(comm.size());
      for (const ParamRef& p : params)
        for (std::size_t i = 0; i < p.size; ++i) p.grad[i] *= inv;
    });

    double epoch_sum = 0.0;
    double last_loss = 0.0;
    eid_t sampled = 0;
    for (int e = 0; e < epochs; ++e) {
      comm.barrier();
      const SampledEpochStats stats = trainer.train_epoch();
      std::array<real_t, 1> t{static_cast<real_t>(stats.seconds)};
      comm.allreduce_max(std::span<real_t>(t));
      epoch_sum += t[0];
      last_loss = stats.loss;
      sampled = stats.sampled_edges;
    }

    const auto total_sampled = comm.allgather(sampled);
    std::array<real_t, 1> loss{static_cast<real_t>(last_loss)};
    comm.allreduce_sum(std::span<real_t>(loss));
    if (comm.rank() == 0) {
      result.mean_epoch_seconds = epoch_sum / epochs;
      result.final_loss = loss[0] / static_cast<real_t>(comm.size());
      for (const auto s : total_sampled) result.sampled_edges_per_epoch += s;
      result.test_accuracy = trainer.evaluate(dataset.test_mask);
    }
  });
  return result;
}

}  // namespace distgnn
