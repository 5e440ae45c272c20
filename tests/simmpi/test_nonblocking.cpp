#include <gtest/gtest.h>

#include "simmpi/comm.hpp"
#include "topology/presets.hpp"
#include "util/vec.hpp"

namespace hcs::simmpi {
namespace {

World make_world(int nodes = 2, int cores = 1, std::uint64_t seed = 1) {
  return World(topology::testbox(nodes, cores), seed);
}

TEST(Nonblocking, IrecvThenWaitDelivers) {
  World w = make_world();
  double got = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      co_await comm.send(1, 5, util::vec(7.5));
    } else {
      RecvRequest req = comm.irecv(0, 5);
      const Message m = co_await comm.wait(std::move(req));
      got = m.data.at(0);
    }
  });
  EXPECT_EQ(got, 7.5);
}

TEST(Nonblocking, ComputeOverlapsCommunication) {
  // The receiver posts the irecv, computes for longer than the transfer
  // takes, and the subsequent wait completes (nearly) instantly.
  World w = make_world();
  sim::Time wait_cost = -1;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      co_await comm.send(1, 1, util::vec(1.0));
    } else {
      RecvRequest req = comm.irecv(0, 1);
      co_await ctx.sim().delay(1e-3);  // compute phase >> transfer time
      const sim::Time before = ctx.sim().now();
      (void)co_await comm.wait(std::move(req));
      wait_cost = ctx.sim().now() - before;
    }
  });
  // Only the receive overhead remains; the wire time was hidden.
  EXPECT_LT(wait_cost, 1e-6);
  EXPECT_GT(wait_cost, 0.0);
}

TEST(Nonblocking, WaitBlocksUntilLateSender) {
  World w = make_world();
  sim::Time recv_done = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      co_await ctx.sim().delay(0.25);
      co_await comm.send(1, 2, util::vec(2.0));
    } else {
      RecvRequest req = comm.irecv(0, 2);
      (void)co_await comm.wait(std::move(req));
      recv_done = ctx.sim().now();
    }
  });
  EXPECT_GT(recv_done, 0.25);
}

TEST(Nonblocking, PostedIrecvsMatchInPostOrder) {
  // Two irecvs with the same (src, tag) must complete in posting order
  // against FIFO message arrival.
  World w = make_world();
  std::vector<double> got;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      co_await comm.send(1, 3, util::vec(1.0));
      co_await comm.send(1, 3, util::vec(2.0));
    } else {
      RecvRequest first = comm.irecv(0, 3);
      RecvRequest second = comm.irecv(0, 3);
      const Message m2 = co_await comm.wait(std::move(second));
      const Message m1 = co_await comm.wait(std::move(first));
      got = {m1.data.at(0), m2.data.at(0)};
    }
  });
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0}));
}

TEST(Nonblocking, SymmetricExchangeWithoutDeadlock) {
  // Classic head-to-head exchange: both post irecv, then send — safe even
  // though both blocking recvs first would deadlock in rendezvous MPI.
  World w = make_world();
  std::vector<double> got(2, 0.0);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    const int peer = 1 - ctx.rank();
    RecvRequest req = comm.irecv(peer, 4);
    co_await comm.send(peer, 4, util::vec(10.0 + ctx.rank()));
    const Message m = co_await comm.wait(std::move(req));
    got[static_cast<std::size_t>(ctx.rank())] = m.data.at(0);
  });
  EXPECT_EQ(got[0], 11.0);
  EXPECT_EQ(got[1], 10.0);
}

TEST(Nonblocking, IsendReturnsImmediatelyCompletesAfterOverhead) {
  World w = make_world();
  sim::Time isend_cost = -1, wait_cost = -1;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      const sim::Time t0 = ctx.sim().now();
      SendRequest req = comm.isend(1, 6, util::vec(3.0));
      isend_cost = ctx.sim().now() - t0;  // no co_await: zero simulated time
      co_await comm.wait(std::move(req));
      wait_cost = ctx.sim().now() - t0;
    } else {
      (void)co_await comm.recv(0, 6);
    }
  });
  EXPECT_EQ(isend_cost, 0.0);
  EXPECT_GT(wait_cost, 0.0);
  EXPECT_LE(wait_cost, 1e-6);  // just the send overhead
}

TEST(Nonblocking, ManyOutstandingRequests) {
  World w = make_world();
  int received = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    constexpr int kN = 50;
    if (ctx.rank() == 0) {
      std::vector<SendRequest> reqs;
      for (int i = 0; i < kN; ++i) reqs.push_back(comm.isend(1, 100 + i, util::vec(i)));
      for (auto& r : reqs) co_await comm.wait(std::move(r));
    } else {
      std::vector<RecvRequest> reqs;
      for (int i = 0; i < kN; ++i) reqs.push_back(comm.irecv(0, 100 + i));
      // Wait in reverse order: completion order must not matter.
      for (int i = kN - 1; i >= 0; --i) {
        const Message m = co_await comm.wait(std::move(reqs[static_cast<std::size_t>(i)]));
        EXPECT_EQ(m.data.at(0), static_cast<double>(i));
        ++received;
      }
    }
  });
  EXPECT_EQ(received, 50);
}

TEST(Nonblocking, BlockingRecvStillMatchesAfterRefactor) {
  // Comm::recv is irecv + wait; spot-check the blocking path end to end.
  World w = make_world(2, 2);
  double got = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 3) co_await comm.send(0, 9, util::vec(12.25));
    if (ctx.rank() == 0) got = (co_await comm.recv(3, 9)).data.at(0);
  });
  EXPECT_EQ(got, 12.25);
}

}  // namespace
}  // namespace hcs::simmpi
