#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "comm/world.hpp"

namespace distgnn {
namespace {

TEST(World, RunsAllRanks) {
  std::atomic<int> count{0};
  World::launch(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 4);
    ++count;
  });
  EXPECT_EQ(count.load(), 4);
}

TEST(World, SingleRankWorks) {
  World::launch(1, [](Communicator& comm) {
    std::vector<real_t> v{1, 2, 3};
    comm.allreduce_sum(std::span<real_t>(v));
    EXPECT_EQ(v[0], 1);
    comm.barrier();
  });
}

TEST(World, RethrowsRankExceptions) {
  EXPECT_THROW(World::launch(3,
                             [](Communicator& comm) {
                               if (comm.rank() == 1) throw std::runtime_error("rank failure");
                             }),
               std::runtime_error);
}

TEST(World, RejectsZeroRanks) { EXPECT_THROW(World(0), std::invalid_argument); }

class AllreduceTest : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceTest, SumAcrossRanks) {
  const int ranks = GetParam();
  World::launch(ranks, [&](Communicator& comm) {
    std::vector<real_t> data(257);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<real_t>(comm.rank() + 1) * static_cast<real_t>(i);
    comm.allreduce_sum(std::span<real_t>(data));
    const real_t rank_sum = static_cast<real_t>(ranks * (ranks + 1)) / 2.0f;
    for (std::size_t i = 0; i < data.size(); ++i)
      ASSERT_FLOAT_EQ(data[i], rank_sum * static_cast<real_t>(i)) << "i=" << i;
  });
}

TEST_P(AllreduceTest, MaxAcrossRanks) {
  const int ranks = GetParam();
  World::launch(ranks, [&](Communicator& comm) {
    std::vector<real_t> data{static_cast<real_t>(comm.rank()), -static_cast<real_t>(comm.rank())};
    comm.allreduce_max(std::span<real_t>(data));
    EXPECT_FLOAT_EQ(data[0], static_cast<real_t>(ranks - 1));
    EXPECT_FLOAT_EQ(data[1], 0.0f);
  });
}

TEST_P(AllreduceTest, RepeatedCollectivesStayConsistent) {
  const int ranks = GetParam();
  World::launch(ranks, [&](Communicator& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<double> data{1.0};
      comm.allreduce_sum(std::span<double>(data));
      ASSERT_DOUBLE_EQ(data[0], static_cast<double>(ranks)) << "iteration " << iter;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllreduceTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(Comm, BroadcastFromEveryRoot) {
  World::launch(4, [](Communicator& comm) {
    for (int root = 0; root < 4; ++root) {
      std::vector<real_t> data(16, comm.rank() == root ? 7.5f : 0.0f);
      comm.broadcast(std::span<real_t>(data), root);
      for (const real_t v : data) ASSERT_FLOAT_EQ(v, 7.5f);
    }
  });
}

TEST(Comm, AllgatherCollectsRankValues) {
  World::launch(5, [](Communicator& comm) {
    const auto got = comm.allgather(comm.rank() * 10);
    ASSERT_EQ(got.size(), 5u);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(got[static_cast<std::size_t>(r)], r * 10);
  });
}

TEST(Comm, SendRecvPreservesChannelOrder) {
  World::launch(2, [](Communicator& comm) {
    constexpr int kTag = 3;
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send(1, kTag, {static_cast<real_t>(i)});
    } else {
      for (int i = 0; i < 50; ++i) {
        const auto payload = comm.recv(0, kTag);
        ASSERT_EQ(payload.size(), 1u);
        ASSERT_FLOAT_EQ(payload[0], static_cast<real_t>(i));
      }
    }
  });
}

TEST(Comm, TagsAreIndependentChannels) {
  World::launch(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/1, {1.0f});
      comm.send(1, /*tag=*/2, {2.0f});
    } else {
      // Receive in the opposite order of sending.
      EXPECT_FLOAT_EQ(comm.recv(0, 2)[0], 2.0f);
      EXPECT_FLOAT_EQ(comm.recv(0, 1)[0], 1.0f);
    }
  });
}

TEST(Comm, TryRecvDoesNotBlock) {
  World::launch(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      // Rank 0 cannot have sent yet: it is parked at the first barrier.
      EXPECT_FALSE(comm.try_recv(0, 9).has_value());
      comm.barrier();
      comm.barrier();  // send happens between the two barriers
      const auto payload = comm.try_recv(0, 9);
      ASSERT_TRUE(payload.has_value());
      EXPECT_FLOAT_EQ((*payload)[0], 4.0f);
    } else {
      comm.barrier();
      comm.send(1, 9, {4.0f});
      comm.barrier();
    }
  });
}

TEST(Comm, EmptyPayloadsAreDeliverable) {
  World::launch(2, [](Communicator& comm) {
    const int peer = 1 - comm.rank();
    comm.send(peer, 5, {});
    EXPECT_TRUE(comm.recv(peer, 5).empty());
  });
}

TEST(Comm, SelfSendIsDelivered) {
  World::launch(1, [](Communicator& comm) {
    comm.send(0, 8, {3.0f});
    EXPECT_FLOAT_EQ(comm.recv(0, 8)[0], 3.0f);
  });
}

TEST(Comm, StatsCountVolume) {
  World::launch(2, [](Communicator& comm) {
    if (comm.rank() == 0) comm.send(1, 1, std::vector<real_t>(10, 1.0f));
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.stats().messages_sent, 1u);
      EXPECT_EQ(comm.stats().bytes_sent, 10 * sizeof(real_t));
    } else {
      comm.recv(0, 1);
    }
  });
}

TEST(Comm, DelayedConsumptionMatchesFifo) {
  // The cd-r pattern: sender pushes one message per "epoch" on a channel;
  // receiver starts consuming r epochs later and must see them in order.
  constexpr int kDelay = 3, kEpochs = 12;
  World::launch(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int e = 0; e < kEpochs; ++e) comm.send(1, 7, {static_cast<real_t>(e)});
    } else {
      for (int e = kDelay; e < kEpochs; ++e) {
        const auto payload = comm.recv(0, 7);
        ASSERT_FLOAT_EQ(payload[0], static_cast<real_t>(e - kDelay));
      }
    }
  });
}

TEST(World, ReusableAcrossRuns) {
  World world(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 3; ++round)
    world.run([&](Communicator& comm) {
      comm.barrier();
      ++total;
    });
  EXPECT_EQ(total.load(), 9);
}

}  // namespace
}  // namespace distgnn
