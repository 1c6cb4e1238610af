// The epoll TCP server (DESIGN.md §12): loopback round trips of every op
// kind against the sequential oracle, per-connection program order through
// the ingest ring, the inline pure-read fast path, strict rejection of
// malformed byte streams, deterministic overload shedding (applier parked
// via pause(), so admission control — not timing — decides), status probes,
// the graceful stop() drain (no acknowledged op is lost, in-flight frames
// are answered), concurrent multi-client churn — which runs under the CI
// TSan job to check the cross-thread handoffs, not just the answers — and
// descriptor exhaustion (a forked server under a low RLIMIT_NOFILE closes
// the excess clients and stays idle).
#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.hpp"
#include "ingest/ingest.hpp"
#include "query_oracle.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace condyn {
namespace {

using server::BlockingClient;
using wire::Status;

constexpr const char* kHost = "127.0.0.1";

/// One variant + service + server on an ephemeral loopback port.
struct Stack {
  std::unique_ptr<DynamicConnectivity> dc;
  std::unique_ptr<ingest::IngestService> svc;
  std::unique_ptr<server::Server> srv;

  explicit Stack(Vertex n, server::ServerOptions sopts = {},
                 ingest::IngestOptions iopts = {}) {
    dc = make_variant("full", n);
    svc = std::make_unique<ingest::IngestService>(*dc, iopts);
    sopts.bind_address = kHost;
    sopts.port = 0;  // ephemeral
    srv = std::make_unique<server::Server>(*dc, *svc, sopts);
    srv->start();
  }
  ~Stack() {
    srv->stop();  // before svc->stop(): the drain waits on applier tickets
    svc->stop();
  }
  uint16_t port() const { return srv->port(); }
};

TEST(Server, LoopbackAllOpKindsMatchOracle) {
  constexpr Vertex kN = 256;
  Stack stack(kN);
  BlockingClient cli;
  cli.connect(kHost, stack.port());
  testutil::QueryOracle oracle(kN);

  std::mt19937_64 rng(11);
  for (int frame = 0; frame < 40; ++frame) {
    std::vector<Op> ops;
    const int len = 1 + static_cast<int>(rng() % 30);
    for (int i = 0; i < len; ++i) {
      const auto u = static_cast<Vertex>(rng() % kN);
      const auto v = static_cast<Vertex>(rng() % kN);
      switch (rng() % 5) {
        case 0: ops.push_back(Op::add(u, v)); break;
        case 1: ops.push_back(Op::remove(u, v)); break;
        case 2: ops.push_back(Op::connected(u, v)); break;
        case 3: ops.push_back(Op::component_size(u)); break;
        default: ops.push_back(Op::representative(u)); break;
      }
    }
    const wire::Results r = cli.call(ops);
    ASSERT_EQ(r.status, Status::kOk) << "frame " << frame;
    EXPECT_EQ(r.values, oracle.replay(ops)) << "frame " << frame;
  }
}

TEST(Server, PerConnectionProgramOrder) {
  // A client that adds an edge and then asks connected() in the *next* frame
  // must observe its own write: read frames queued behind an in-flight
  // update route through the same FIFO ring.
  constexpr Vertex kN = 64;
  Stack stack(kN);
  BlockingClient cli;
  cli.connect(kHost, stack.port());

  const std::vector<Op> write = {Op::add(1, 2), Op::add(2, 3)};
  const std::vector<Op> read = {Op::connected(1, 3)};
  cli.send_ops(write);
  cli.send_ops(read);  // pipelined: lands while the update may be in flight
  const wire::Results w = cli.recv_results();
  const wire::Results r = cli.recv_results();
  ASSERT_EQ(w.status, Status::kOk);
  EXPECT_EQ(w.values, (std::vector<uint64_t>{1, 1}));
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.values, (std::vector<uint64_t>{1}));
}

TEST(Server, PureReadFramesServeInline) {
  constexpr Vertex kN = 64;
  Stack stack(kN);
  BlockingClient cli;
  cli.connect(kHost, stack.port());
  ASSERT_EQ(cli.call({{Op::add(4, 5)}}).status, Status::kOk);

  const uint64_t before = stack.srv->stats().inline_reads;
  const wire::Results r = cli.call({{Op::connected(4, 5), Op::connected(4, 6)}});
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.values, (std::vector<uint64_t>{1, 0}));
  EXPECT_GT(stack.srv->stats().inline_reads, before);
}

TEST(Server, MalformedFramesAnsweredAndClosed) {
  constexpr Vertex kN = 64;
  // Each case gets a fresh connection: kBadFrame is terminal for the stream.
  const auto expect_bad = [&](const std::vector<uint8_t>& bytes) {
    Stack stack(kN);
    BlockingClient cli;
    cli.connect(kHost, stack.port());
    cli.send_raw(bytes);
    const wire::Results r = cli.recv_results();
    EXPECT_EQ(r.status, Status::kBadFrame);
    // The server closes after flushing the response.
    EXPECT_THROW(cli.recv_results(), std::runtime_error);
    EXPECT_EQ(stack.srv->stats().bad_frames, 1u);
  };

  expect_bad({0, 0, 0, 0});           // length 0
  expect_bad({0xff, 0xff, 0xff, 0xff});  // length past the 2^24 bound
  expect_bad({1, 0, 0, 0, 99});       // unknown frame type
  // Ops payload with a bad kind (count 1, tag kind=7).
  expect_bad({3, 0, 0, 0, 1, 1, 0x07});
  // Ops frame whose vertex lands outside the server's universe.
  std::vector<uint8_t> out_of_range;
  wire::encode_ops_frame({{Op::add(kN + 5, 0)}}, out_of_range);
  expect_bad(out_of_range);
  // A client must not send response-type frames.
  std::vector<uint8_t> results_frame;
  wire::encode_results_frame(Status::kOk, {{1}}, results_frame);
  expect_bad(results_frame);
}

TEST(Server, TruncatedFrameGetsNoAnswer) {
  constexpr Vertex kN = 64;
  Stack stack(kN);
  BlockingClient cli;
  cli.connect(kHost, stack.port());
  std::vector<uint8_t> frame;
  wire::encode_ops_frame({{Op::connected(1, 2)}}, frame);
  frame.pop_back();  // incomplete: the server waits for the rest, forever
  cli.send_raw(frame);
  // A later complete exchange on a *second* connection proves the server is
  // not stuck on the half frame.
  BlockingClient cli2;
  cli2.connect(kHost, stack.port());
  EXPECT_EQ(cli2.call({{Op::connected(1, 2)}}).status, Status::kOk);
  EXPECT_EQ(stack.srv->stats().bad_frames, 0u);
}

TEST(Server, OverloadShedsWithExplicitStatus) {
  constexpr Vertex kN = 64;
  server::ServerOptions sopts;
  sopts.max_inflight_frames = 1;
  Stack stack(kN, sopts);

  // Park the applier: the first update frame's ticket cannot complete, so
  // the second frame deterministically exceeds the in-flight cap. Responses
  // stay strictly in request order — the shed answer queues behind the
  // parked frame's.
  stack.svc->pause();
  BlockingClient cli;
  cli.connect(kHost, stack.port());
  cli.send_ops({{Op::add(1, 2)}});
  cli.send_ops({{Op::add(3, 4)}});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stack.svc->resume();

  const wire::Results first = cli.recv_results();
  const wire::Results second = cli.recv_results();
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.values, (std::vector<uint64_t>{1}));
  EXPECT_EQ(second.status, Status::kOverloaded);
  EXPECT_TRUE(second.values.empty());
  EXPECT_EQ(stack.srv->stats().shed_frames, 1u);

  // Shedding is not collapse: the connection keeps working afterwards.
  EXPECT_EQ(cli.call({{Op::connected(1, 2)}}).values,
            (std::vector<uint64_t>{1}));
}

TEST(Server, StatusProbeReportsIngestCounters) {
  constexpr Vertex kN = 128;
  Stack stack(kN);
  BlockingClient cli;
  cli.connect(kHost, stack.port());
  ASSERT_EQ(cli.call({{Op::add(1, 2), Op::add(2, 3)}}).status, Status::kOk);

  const wire::StatusReport rep = cli.status();
  EXPECT_EQ(rep.num_vertices, kN);
  EXPECT_EQ(rep.submitted, 2u);
  EXPECT_EQ(rep.acked, 2u);  // call() returned, so the commit acknowledged
  EXPECT_EQ(rep.queue_depth, 0u);
  EXPECT_EQ(rep.journal_errors, 0u);
  EXPECT_GE(rep.batches, 1u);
  EXPECT_EQ(stack.srv->stats().status_frames, 1u);
}

TEST(Server, StatusProbeQueuesBehindInflightFrames) {
  // In-order protocol: a probe sent after an un-acknowledged update frame
  // must be answered after it, and must see its effects.
  constexpr Vertex kN = 64;
  Stack stack(kN);
  stack.svc->pause();
  BlockingClient cli;
  cli.connect(kHost, stack.port());
  cli.send_ops({{Op::add(1, 2)}});
  cli.send_status_request();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stack.svc->resume();

  EXPECT_EQ(cli.recv_results().status, Status::kOk);
  // The probe is answered second (strict request order), and by then the
  // update was submitted. (acked lags the ticket flip by nanoseconds, so a
  // fresh probe — nothing in flight — is what asserts it exactly.)
  const wire::StatusReport rep = cli.recv_status();
  EXPECT_EQ(rep.submitted, 1u);
  const wire::StatusReport settled = cli.status();
  EXPECT_EQ(settled.acked, 1u);
  EXPECT_EQ(settled.queue_depth, 0u);
}

TEST(Server, ServiceStoppedAnswersShuttingDownReadsStillServed) {
  constexpr Vertex kN = 64;
  Stack stack(kN);
  BlockingClient cli;
  cli.connect(kHost, stack.port());
  ASSERT_EQ(cli.call({{Op::add(1, 2)}}).status, Status::kOk);

  // Stop the ingest service out from under the server: updates are refused
  // (tickets kDropped -> kShuttingDown), pure reads keep working inline.
  stack.svc->stop();
  EXPECT_EQ(cli.call({{Op::add(3, 4)}}).status, Status::kShuttingDown);
  EXPECT_EQ(cli.call({{Op::connected(1, 2)}}).values,
            (std::vector<uint64_t>{1}));
}

TEST(Server, GracefulStopFlushesInflightAndLosesNoAck) {
  constexpr Vertex kN = 256;
  server::ServerOptions sopts;
  sopts.max_inflight_frames = 32;  // all 8 frames may be in flight at once
  auto stack = std::make_unique<Stack>(kN, sopts);
  BlockingClient cli;
  cli.connect(kHost, stack->port());

  // Park the applier, pipeline update frames, and wait until every op sits
  // ticketed in the ring — *then* stop the server. The drain must flush all
  // of them through the group commit, not abandon them.
  stack->svc->pause();
  testutil::QueryOracle oracle(kN);
  std::mt19937_64 rng(23);
  std::vector<std::vector<Op>> frames;
  for (int f = 0; f < 8; ++f) {
    std::vector<Op> ops;
    for (int i = 0; i < 16; ++i) {
      const auto u = static_cast<Vertex>(rng() % kN);
      const auto v = static_cast<Vertex>(rng() % kN);
      ops.push_back(rng() % 3 == 0 ? Op::remove(u, v) : Op::add(u, v));
    }
    frames.push_back(std::move(ops));
    cli.send_ops(frames.back());
  }
  while (stack->svc->stats().submitted < 8 * 16) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&] { stack->srv->stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stack->svc->resume();

  // Every pipelined frame is answered kOk before the connection closes: the
  // drain flushes in-flight batches, it does not abandon them.
  for (const auto& frame : frames) {
    const wire::Results r = cli.recv_results();
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.values, oracle.replay(frame));
  }
  EXPECT_THROW(cli.recv_results(), std::runtime_error);  // then EOF
  stopper.join();
  stack->svc->stop();

  // The structure holds exactly the acknowledged state.
  for (Vertex u = 0; u < 16; ++u) {
    for (Vertex v = u + 1; v < 16; ++v) {
      EXPECT_EQ(stack->dc->connected(u, v),
                oracle.apply(Op::connected(u, v)) != 0)
          << u << "-" << v;
    }
  }
}

TEST(Server, ConcurrentMultiClientChurn) {
  // Several clients over several worker threads, each confined to a private
  // vertex range so a per-client sequential oracle stays exact while the
  // shared structure takes everyone's interleaved batches.
  constexpr Vertex kRange = 64;
  constexpr int kClients = 4;
  constexpr int kFrames = 60;
  server::ServerOptions sopts;
  sopts.threads = 3;
  Stack stack(kRange * kClients, sopts);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        const Vertex base = static_cast<Vertex>(t) * kRange;
        testutil::QueryOracle oracle(kRange);
        BlockingClient cli;
        cli.connect(kHost, stack.port());
        std::mt19937_64 rng(1000 + t);
        for (int f = 0; f < kFrames; ++f) {
          std::vector<Op> local;  // oracle coordinates (0..kRange)
          std::vector<Op> ops;    // wire coordinates (base-shifted)
          const int len = 1 + static_cast<int>(rng() % 12);
          for (int i = 0; i < len; ++i) {
            const auto u = static_cast<Vertex>(rng() % kRange);
            const auto v = static_cast<Vertex>(rng() % kRange);
            Op op;
            switch (rng() % 5) {
              case 0: op = Op::add(u, v); break;
              case 1: op = Op::remove(u, v); break;
              case 2: op = Op::connected(u, v); break;
              case 3: op = Op::component_size(u); break;
              default: op = Op::representative(u); break;
            }
            local.push_back(op);
            Op shifted = op;
            shifted.u += base;
            shifted.v += base;
            ops.push_back(shifted);
          }
          const wire::Results r = cli.call(ops);
          if (r.status != Status::kOk) throw std::runtime_error("not ok");
          std::vector<uint64_t> expect = oracle.replay(local);
          // Size/representative answers come back in wire coordinates.
          for (std::size_t i = 0; i < local.size(); ++i) {
            if (local[i].kind == OpKind::kRepresentative) expect[i] += base;
          }
          if (r.values != expect) throw std::runtime_error("mismatch");
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const server::ServerStats st = stack.srv->stats();
  EXPECT_EQ(st.accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(st.bad_frames, 0u);
}

// ---------------------------------------------------------------------------
// Descriptor exhaustion: a server out of fds must shed, not spin
// ---------------------------------------------------------------------------

/// Reads exactly n bytes, giving up after timeout_ms without progress.
bool read_exact(int fd, void* buf, std::size_t n, int timeout_ms) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Lowers RLIMIT_NOFILE so that exactly `free_slots` more descriptors fit.
bool leave_free_descriptors(int free_slots) {
  std::set<int> open_fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return false;
  while (const dirent* ent = ::readdir(dir)) {
    if (ent->d_name[0] != '.') open_fds.insert(std::atoi(ent->d_name));
  }
  open_fds.erase(::dirfd(dir));
  ::closedir(dir);
  rlim_t limit = 0;
  for (int free_seen = 0; free_seen < free_slots; ++limit) {
    if (open_fds.count(static_cast<int>(limit)) == 0) ++free_seen;
  }
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return false;
  rl.rlim_cur = limit;
  return ::setrlimit(RLIMIT_NOFILE, &rl) == 0;
}

struct StarvedReport {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  int64_t cpu_us = 0;     ///< process CPU (user + system) over the window
  int64_t window_us = 0;  ///< wall time of the window
};

int64_t cpu_us_now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000LL +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

/// Child side: a server with `free_slots` descriptors to spare reports its
/// port, waits for the parent's clients, then measures its own CPU use over
/// an idle window while the spare slots are all held by clients. The ingest
/// applier, which polls its ring while running, is parked for the window so
/// that the process CPU is the acceptor's and the workers' alone.
[[noreturn]] void run_starved_server(int to_parent, int from_parent,
                                     int free_slots) {
  int code = 1;
  try {
    Stack stack(64);
    char byte = 0;
    if (leave_free_descriptors(free_slots)) {
      const uint16_t port = stack.port();
      if (::write(to_parent, &port, sizeof port) == sizeof port &&
          read_exact(from_parent, &byte, 1, 30000)) {
        StarvedReport rep;
        stack.svc->pause();
        const auto t0 = std::chrono::steady_clock::now();
        const int64_t c0 = cpu_us_now();
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        rep.cpu_us = cpu_us_now() - c0;
        rep.window_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        stack.svc->resume();
        const server::ServerStats st = stack.srv->stats();
        rep.accepted = st.accepted;
        rep.rejected = st.rejected;
        if (::write(to_parent, &rep, sizeof rep) == sizeof rep &&
            read_exact(from_parent, &byte, 1, 30000)) {
          code = 0;
        }
      }
    }
  } catch (const std::exception&) {
  }
  ::_exit(code);
}

/// A raw loopback connection, for clients the server is expected to close.
int raw_connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, kHost, &addr.sin_addr);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// True if the peer closes the connection within timeout_ms.
bool closed_by_peer(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
  char byte = 0;
  return ::read(fd, &byte, 1) <= 0;  // EOF or reset
}

TEST(Server, DescriptorExhaustionClosesExcessClientsWithoutSpinning) {
  // The server runs in a forked child whose RLIMIT_NOFILE leaves room for
  // kServed connections. Past that, accept4 fails with EMFILE while the
  // pending connection keeps the listen fd readable; the acceptor must
  // accept-and-close it through its spare descriptor instead of polling
  // in a loop.
  constexpr int kServed = 3;
  constexpr int kExcess = 5;
  int up[2] = {-1, -1};
  int down[2] = {-1, -1};
  ASSERT_EQ(::pipe(up), 0);
  ASSERT_EQ(::pipe(down), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(up[0]);
    ::close(down[1]);
    run_starved_server(up[1], down[0], kServed);
  }
  ::close(up[1]);
  ::close(down[0]);
  auto* const old_sigpipe = std::signal(SIGPIPE, SIG_IGN);

  uint16_t port = 0;
  bool ok = read_exact(up[0], &port, sizeof port, 30000);
  EXPECT_TRUE(ok) << "child server did not start";
  std::vector<std::unique_ptr<BlockingClient>> served;
  int excess_closed = 0;
  StarvedReport rep;
  if (ok) {
    for (int i = 0; i < kServed; ++i) {
      auto cli = std::make_unique<BlockingClient>();
      cli->connect(kHost, port);
      EXPECT_EQ(cli->call({{Op::connected(0, 1)}}).status, Status::kOk);
      served.push_back(std::move(cli));
    }
    for (int i = 0; i < kExcess; ++i) {
      const int fd = raw_connect(port);
      if (fd >= 0 && closed_by_peer(fd, 10000)) ++excess_closed;
      if (fd >= 0) ::close(fd);
    }
    const char go = 1;
    ok = ::write(down[1], &go, 1) == 1 &&
         read_exact(up[0], &rep, sizeof rep, 30000);
    EXPECT_TRUE(ok) << "child server did not report";
    served.clear();
    (void)!::write(down[1], &go, 1);
  }
  int status = 0;
  for (int waited_ms = 0; ::waitpid(pid, &status, WNOHANG) == 0;
       waited_ms += 10) {
    if (waited_ms >= 30000) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::signal(SIGPIPE, old_sigpipe);
  ::close(up[0]);
  ::close(down[1]);

  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(excess_closed, kExcess);
  EXPECT_EQ(rep.accepted, static_cast<uint64_t>(kServed));
  EXPECT_EQ(rep.rejected, static_cast<uint64_t>(kExcess));
  // Near idle: a spinning acceptor burns a whole core over the window.
  EXPECT_GT(rep.window_us, 0);
  EXPECT_LT(rep.cpu_us * 10, rep.window_us)
      << "server used " << rep.cpu_us << " us CPU in a " << rep.window_us
      << " us idle window";
}

}  // namespace
}  // namespace condyn
