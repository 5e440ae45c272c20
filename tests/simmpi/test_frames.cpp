// Coroutine frames per blocking operation.  A function that only forwards to
// another Task returns it instead of awaiting it, and a receive parks in the
// frame of the call that completes it, so each operation costs exactly the
// frames of the algorithm it runs (sim/task.hpp).  At 16k ranks blocked in
// one collective, every frame more per operation is one frame more per rank
// (docs/performance.md, "Frames per blocking operation").
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/frame_pool.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "util/vec.hpp"

namespace hcs::simmpi {
namespace {

using Body = std::function<sim::Task<void>(RankCtx&)>;

// Frames of the transport operations: each is the one World coroutine that
// completes it.
constexpr std::uint64_t kSend = 1;    // World::p2p_send
constexpr std::uint64_t kRecv = 1;    // World::await_recv
constexpr std::uint64_t kRecvFt = 1;  // World::await_recv_until
constexpr std::uint64_t kBurst = 1;   // World::pingpong_burst

// Frames a World of `ranks` ranks (two nodes, one shard, so every frame is
// allocated on this thread) allocates while every rank runs `body`, less
// those of a rank that does nothing: the frames of the operations alone.
std::uint64_t frames_of(int ranks, const Body& body, const fault::FaultPlan& plan = {}) {
  auto run = [&](const Body& fn) {
    World w(topology::testbox(2, ranks / 2), 7, plan);
    const std::uint64_t before = sim::detail::FramePool::frames_allocated();
    w.run_all(fn);
    return sim::detail::FramePool::frames_allocated() - before;
  };
  return run(body) - run([](RankCtx&) -> sim::Task<void> { co_return; });
}

// Every rank sends to the next one and receives from the previous one with
// `recv`, so a p-rank World performs p sends and p receives.
template <typename Recv>
Body ring(Recv recv) {
  return [recv](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    const int p = comm.size();
    co_await comm.send((comm.rank() + 1) % p, 5, util::vec(1.0));
    co_await recv(comm, (comm.rank() + p - 1) % p);
  };
}

class Frames : public ::testing::TestWithParam<int> {
 protected:
  int p() const { return GetParam(); }
  std::uint64_t ranks() const { return static_cast<std::uint64_t>(GetParam()); }
};

TEST_P(Frames, Send) {
  EXPECT_EQ(frames_of(p(),
                      [](RankCtx& ctx) -> sim::Task<void> {
                        Comm& comm = ctx.comm_world();
                        co_await comm.send((comm.rank() + 1) % comm.size(), 5, util::vec(1.0));
                      }),
            ranks() * kSend);
}

TEST_P(Frames, Recv) {
  EXPECT_EQ(frames_of(p(), ring([](Comm& comm, int src) -> sim::Task<void> {
              // hcs-lint: allow-next-line(ft-plain-recv) — the plain receive is the test
              co_await comm.recv(src, 5);
            })),
            ranks() * (kSend + kRecv + 1));  // + the lambda's own frame
}

TEST_P(Frames, RecvFt) {
  EXPECT_EQ(frames_of(p(), ring([](Comm& comm, int src) -> sim::Task<void> {
              co_await comm.recv_ft(src, 5);
            })),
            ranks() * (kSend + kRecvFt + 1));
}

// A crash plan arms the failure detector, so the receive gets a deadline;
// the crash itself lies beyond the run.
TEST_P(Frames, RecvFtUnderCrashPlan) {
  fault::FaultPlan plan;
  plan.add("crash:rank=1,at=10s");
  EXPECT_EQ(frames_of(p(),
                      ring([](Comm& comm, int src) -> sim::Task<void> {
                        co_await comm.recv_ft(src, 5);
                      }),
                      plan),
            ranks() * (kSend + kRecvFt + 1));
}

TEST_P(Frames, IrecvAndWait) {
  EXPECT_EQ(frames_of(p(),
                      [](RankCtx& ctx) -> sim::Task<void> {
                        Comm& comm = ctx.comm_world();
                        const int p = comm.size();
                        RecvRequest req = comm.irecv((comm.rank() + p - 1) % p, 5);
                        co_await comm.send((comm.rank() + 1) % p, 5, util::vec(1.0));
                        co_await comm.wait(std::move(req));
                      }),
            ranks() * (kSend + kRecv));
}

TEST_P(Frames, PingpongBurst) {
  EXPECT_EQ(frames_of(p(),
                      [](RankCtx& ctx) -> sim::Task<void> {
                        const vclock::ClockPtr clk = ctx.base_clock();
                        const int r = ctx.rank();
                        co_await ctx.comm_world().pingpong_burst(r ^ 1, r % 2 == 1, *clk, 4);
                      }),
            ranks() * kBurst);
}

// The fault-free split exchanges nothing but a Bruck allgather of empty
// blocks: Comm::split and allgather_bruck, then log2(p) rounds of one send
// and one receive.
TEST_P(Frames, SplitSharedNode) {
  const std::uint64_t rounds = p() == 2 ? 1 : 2;
  EXPECT_EQ(frames_of(p(),
                      [](RankCtx& ctx) -> sim::Task<void> {
                        const Comm node = co_await ctx.comm_world().split_shared_node();
                        EXPECT_EQ(node.size(), ctx.world().size() / 2);
                      }),
            ranks() * (2 + rounds * (kSend + kRecvFt)));
}

// One call of each collective with its default algorithm costs that
// algorithm's frame on every rank plus one send and one fault-tolerant
// receive per message: p + m * (kSend + kRecvFt) for m messages.
struct CollectiveCase {
  std::string name;
  std::function<sim::Task<void>(Comm&)> call;
  std::uint64_t messages_p2;
  std::uint64_t messages_p4;
};

std::vector<double> per_rank(const Comm& comm) {
  return std::vector<double>(static_cast<std::size_t>(comm.size()), 1.0);
}

std::vector<CollectiveCase> collective_cases() {
  using Call = std::function<sim::Task<void>(Comm&)>;
  const Call barrier_call = [](Comm& c) -> sim::Task<void> { co_await barrier(c); };
  const Call bcast_call = [](Comm& c) -> sim::Task<void> { co_await bcast(c, util::vec(1.0)); };
  const Call reduce_call = [](Comm& c) -> sim::Task<void> {
    co_await reduce(c, util::vec(1.0), ReduceOp::kSum);
  };
  const Call allreduce_call = [](Comm& c) -> sim::Task<void> {
    co_await allreduce(c, util::vec(1.0));
  };
  const Call gather_call = [](Comm& c) -> sim::Task<void> { co_await gather(c, util::vec(1.0)); };
  const Call scatter_call = [](Comm& c) -> sim::Task<void> {
    co_await scatter(c, per_rank(c), 1);
  };
  const Call allgather_call = [](Comm& c) -> sim::Task<void> {
    co_await allgather(c, util::vec(1.0));
  };
  const Call alltoall_call = [](Comm& c) -> sim::Task<void> {
    co_await alltoall(c, per_rank(c), 1);
  };
  const Call reduce_scatter_call = [](Comm& c) -> sim::Task<void> {
    co_await reduce_scatter(c, per_rank(c), 1);
  };
  const Call scan_call = [](Comm& c) -> sim::Task<void> { co_await scan(c, util::vec(1.0)); };
  return {
      {"barrier", barrier_call, 2, 6},  // binomial fan-in and fan-out
      {"bcast", bcast_call, 1, 3},
      {"reduce", reduce_call, 1, 3},
      {"allreduce", allreduce_call, 2, 8},  // recursive doubling
      {"gather", gather_call, 1, 3},
      {"scatter", scatter_call, 1, 3},
      {"allgather", allgather_call, 2, 8},  // Bruck
      {"alltoall", alltoall_call, 2, 12},
      {"reduce_scatter", reduce_scatter_call, 4, 16},  // ring plus the final rotation
      {"scan", scan_call, 1, 5},
  };
}

TEST_P(Frames, OneCallOfEachCollective) {
  for (const CollectiveCase& cc : collective_cases()) {
    SCOPED_TRACE(cc.name);
    const std::uint64_t messages = p() == 2 ? cc.messages_p2 : cc.messages_p4;
    const auto call = cc.call;
    // The lambda coroutine around each call is a frame of its own.
    EXPECT_EQ(frames_of(p(),
                        [call](RankCtx& ctx) -> sim::Task<void> {
                          co_await call(ctx.comm_world());
                        }),
              ranks() * 2 + messages * (kSend + kRecvFt));
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, Frames, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "ranks";
                         });

}  // namespace
}  // namespace hcs::simmpi
