#include <gtest/gtest.h>

#include "util/vec.hpp"

#include <string>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"

namespace hcs::simmpi {
namespace {

World make_world(int nodes = 2, int cores = 2, std::uint64_t seed = 1) {
  return World(topology::testbox(nodes, cores), seed);
}

TEST(P2P, SendRecvDeliversPayload) {
  World w = make_world();
  std::vector<double> got;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      co_await comm.send(3, 42, util::vec(1.0, 2.0, 3.0));
    } else if (ctx.rank() == 3) {
      Message m = co_await comm.recv(0, 42);
      got = m.data;
      EXPECT_EQ(m.src, 0);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(P2P, TransferTakesPositiveTime) {
  World w = make_world();
  sim::Time sent = -1, received = -1;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) {
      co_await ctx.comm_world().send(2, 1, {});
      sent = ctx.sim().now();
    } else if (ctx.rank() == 2) {
      co_await ctx.comm_world().recv(0, 1);
      received = ctx.sim().now();
    }
  });
  EXPECT_GT(sent, 0.0);       // send overhead
  EXPECT_GT(received, sent);  // wire latency + recv overhead
}

TEST(P2P, TagsKeepMessagesApart) {
  World w = make_world();
  double first = 0, second = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      co_await comm.send(1, 7, util::vec(7.0));
      co_await comm.send(1, 8, util::vec(8.0));
    } else if (ctx.rank() == 1) {
      // Receive in the opposite order of sending.
      Message m8 = co_await comm.recv(0, 8);
      Message m7 = co_await comm.recv(0, 7);
      first = m8.data.at(0);
      second = m7.data.at(0);
    }
  });
  EXPECT_EQ(first, 8.0);
  EXPECT_EQ(second, 7.0);
}

TEST(P2P, SourcesKeepMessagesApart) {
  World w = make_world(2, 2);
  std::vector<double> order;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 1 || ctx.rank() == 2) {
      co_await comm.send(0, 5, util::vec(static_cast<double>(ctx.rank())));
    } else if (ctx.rank() == 0) {
      Message a = co_await comm.recv(2, 5);
      Message b = co_await comm.recv(1, 5);
      order = {a.data.at(0), b.data.at(0)};
    }
  });
  EXPECT_EQ(order, (std::vector<double>{2.0, 1.0}));
}

TEST(P2P, FifoPerSourceAndTag) {
  World w = make_world();
  std::vector<double> got;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) co_await comm.send(1, 9, util::vec(static_cast<double>(i)));
    } else if (ctx.rank() == 1) {
      co_await ctx.sim().delay(1e-3);  // let all arrive (unexpected queue)
      for (int i = 0; i < 5; ++i) {
        Message m = co_await comm.recv(0, 9);
        got.push_back(m.data.at(0));
      }
    }
  });
  EXPECT_EQ(got, (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
}

TEST(P2P, RecvBeforeSendBlocksUntilArrival) {
  World w = make_world();
  sim::Time recv_done = -1;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 1) {
      Message m = co_await comm.recv(0, 3);
      recv_done = ctx.sim().now();
      EXPECT_EQ(m.data.at(0), 99.0);
    } else if (ctx.rank() == 0) {
      co_await ctx.sim().delay(0.5);
      co_await comm.send(1, 3, util::vec(99.0));
    }
  });
  EXPECT_GT(recv_done, 0.5);
}

std::string deadlock_message(World& w) {
  try {
    w.run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a deadlock error";
  return "";
}

TEST(P2P, DeadlockDetected) {
  World w = make_world();
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) {
      co_await ctx.comm_world().recv(1, 1);  // never sent
    }
  });
  const std::string what = deadlock_message(w);
  EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
  EXPECT_NE(what.find("1 of 4 processes still blocked: rank 0 waits on recv(src 1, tag 0x"),
            std::string::npos)
      << what;
  EXPECT_EQ(what.find("more"), std::string::npos) << what;
}

TEST(P2P, DeadlockReportListsEightWaitsThenCounts) {
  World w = make_world(4, 4);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    const int p = ctx.comm_world().size();
    co_await ctx.comm_world().recv((ctx.rank() + 1) % p, 7);  // nobody sends
  });
  const std::string what = deadlock_message(w);
  EXPECT_NE(what.find("16 of 16 processes still blocked: rank 0 waits on recv(src 1, tag 0x"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("; rank 7 waits on recv(src 8, tag 0x"), std::string::npos) << what;
  EXPECT_EQ(what.find("rank 8 waits"), std::string::npos) << what;
  EXPECT_NE(what.find("; and 8 more"), std::string::npos) << what;
}

TEST(P2P, DeclaredBytesSlowDelivery) {
  auto timed_transfer = [](std::int64_t bytes) {
    World w(topology::testbox(2, 1), 3);
    sim::Time received = 0;
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      if (ctx.rank() == 0) {
        co_await ctx.comm_world().send(1, 1, util::vec(1.0), bytes);
      } else {
        co_await ctx.comm_world().recv(0, 1);
        received = ctx.sim().now();
      }
    });
    return received;
  };
  EXPECT_GT(timed_transfer(1 << 20), timed_transfer(8));
}

TEST(P2P, ManyMessagesAllDelivered) {
  World w = make_world(2, 4);
  int received = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    const int p = comm.size();
    if (ctx.rank() == 0) {
      for (int i = 0; i < 100; ++i) {
        co_await comm.send(1 + i % (p - 1), 100 + i / (p - 1), {});
      }
    } else {
      const int mine = 100 / (p - 1) + (ctx.rank() <= 100 % (p - 1) ? 1 : 0);
      for (int i = 0; i < mine; ++i) {
        co_await comm.recv(0, 100 + i);
        ++received;
      }
    }
  });
  EXPECT_EQ(received, 100);
}

TEST(P2P, WorldDeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    World w(topology::testbox(2, 2), seed);
    sim::Time done = 0;
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      Comm& comm = ctx.comm_world();
      if (ctx.rank() == 0) {
        for (int i = 0; i < 20; ++i) {
          co_await comm.send(3, i, {});
          co_await comm.recv(3, 1000 + i);
        }
        done = ctx.sim().now();
      } else if (ctx.rank() == 3) {
        for (int i = 0; i < 20; ++i) {
          co_await comm.recv(0, i);
          co_await comm.send(0, 1000 + i, {});
        }
      }
    });
    return done;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

}  // namespace
}  // namespace hcs::simmpi
