#include "ladder.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "graph/wire.hpp"

namespace perfbench {

namespace wire = condyn::wire;

namespace {

// The SLO a rate step must meet (README.md, "The SLO and max_rate_ops_s").
constexpr double kSloP99Us = 5000;
constexpr double kSloRefusedShare = 0.01;
constexpr int64_t kBacklogGrowthNs = 1'000'000;
// The generator fell behind on its own when it ran this late without the
// server having stopped reading.
constexpr double kGenLateUs = 1000;
// Answers still missing this long after the last scheduled send are lost.
constexpr int64_t kAnswerTimeoutNs = 10'000'000'000;

uint32_t clamp_ns(int64_t ns) {
  return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, kRefused - 1));
}

std::span<const Op> frame_ops(const Stream& s, uint64_t j) {
  const std::size_t off = static_cast<std::size_t>((j * kFrameOps) % s.ops.size());
  return std::span<const Op>(s.ops).subspan(off, kFrameOps);
}

/// Range checks a kOk value can be held to while other clients run: sizes
/// lie in [1, n], a representative is the smallest member (so <= u), and
/// boolean kinds answer 0 or 1.
bool value_in_range(const Op& op, uint64_t v, Vertex n) {
  switch (op.kind) {
    case OpKind::kComponentSize: return v >= 1 && v <= n;
    case OpKind::kRepresentative: return v <= op.u;
    default: return v <= 1;
  }
}

/// Schedule shared by both transports: G frames, frame g due at t0 + g*gap,
/// frame g belongs to connection g % kClients as its (g / kClients)-th frame.
struct Schedule {
  uint64_t frames = 0;
  double gap_ns = 0;
  int64_t t0 = 0;
  std::array<uint64_t, kClients> base{};  ///< frames logged before the step

  Schedule(double rate, double seconds, FrameLogs& logs) {
    frames = std::max<uint64_t>(
        kClients, static_cast<uint64_t>(std::llround(seconds * rate / kFrameOps)));
    gap_ns = 1e9 * kFrameOps / rate;
    for (unsigned c = 0; c < kClients; ++c) {
      base[c] = logs[c].status.size();
      const uint64_t mine = (frames + kClients - 1 - c) / kClients;
      logs[c].status.resize(base[c] + mine, 0xff);
      logs[c].values.resize((base[c] + mine) * kFrameOps, 0);
    }
    t0 = now_ns() + 2'000'000;
  }
  int64_t due(uint64_t g) const {
    return t0 + static_cast<int64_t>(static_cast<double>(g) * gap_ns);
  }
};

/// Main-thread wait for the step's threads, sampling meanwhile.
void wait_sampling(std::atomic<unsigned>& running,
                   const std::function<void()>* sampler) {
  if (sampler == nullptr) return;
  while (running.load() > 0) {
    (*sampler)();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

bool StepResult::meets_slo() const {
  return !connection_error && !backlog_growing && bad_frames == 0 &&
         p99_all_us <= kSloP99Us && refused_share <= kSloRefusedShare;
}

void finish_step(StepResult& r, std::vector<int64_t> late_ns) {
  r.ops = r.frames * kFrameOps;
  r.latency_ns.clear();
  for (uint32_t l : r.frame_latency_ns) {
    if (l != kRefused) r.latency_ns.push_back(l);
  }
  r.late_p99_us = percentile(late_ns, 0.99) / 1e3;
  r.late_ns = std::move(late_ns);

  const std::size_t g_count = r.frame_latency_ns.size();
  r.windows = static_cast<unsigned>(std::max<uint64_t>(1, g_count / kWindowFrames));
  std::vector<double> p50, p99, p99_all, refused;
  for (unsigned w = 0; w < r.windows; ++w) {
    const auto first = r.frame_latency_ns.begin() +
                       static_cast<std::ptrdiff_t>(g_count * w / r.windows);
    const auto last = r.frame_latency_ns.begin() +
                      static_cast<std::ptrdiff_t>(g_count * (w + 1) / r.windows);
    const std::vector<uint32_t> all(first, last);
    std::vector<uint32_t> ok;
    for (uint32_t l : all) {
      if (l != kRefused) ok.push_back(l);
    }
    p50.push_back(median(ok) / 1e3);
    p99.push_back(percentile(ok, 0.99) / 1e3);
    p99_all.push_back(percentile(all, 0.99) / 1e3);
    refused.push_back(1.0 - static_cast<double>(ok.size()) /
                                static_cast<double>(std::max<std::size_t>(all.size(), 1)));
  }
  r.p50_us = median(p50);
  r.p99_us = median(p99);
  r.p99_all_us = median(p99_all);
  r.refused_share = median(refused);

  // Backlog: the answered frames of the last quarter of the schedule waited
  // clearly longer than those of the first quarter.
  const std::size_t q = g_count / 4;
  std::vector<uint32_t> head, tail;
  for (std::size_t g = 0; g < q; ++g) {
    if (r.frame_latency_ns[g] != kRefused) head.push_back(r.frame_latency_ns[g]);
    const uint32_t l = r.frame_latency_ns[g_count - 1 - g];
    if (l != kRefused) tail.push_back(l);
  }
  if (!head.empty() && !tail.empty()) {
    r.backlog_growing =
        median(tail) - median(head) > static_cast<double>(kBacklogGrowthNs);
  }
}

// --- in-process --------------------------------------------------------------

StepResult InProcessTransport::run_step(double rate, double seconds,
                                        FrameLogs& logs,
                                        const std::function<void()>* sampler) {
  const Schedule sch(rate, seconds, logs);
  StepResult r;
  r.rate = rate;
  r.frames = sch.frames;
  r.frame_latency_ns.assign(sch.frames, kRefused);
  std::vector<int64_t> late(sch.frames, 0);
  std::atomic<unsigned> running{1};
  int64_t end = sch.t0;
  double busy_cpu_s = 0;
  const Vertex n = dc_.num_vertices();

  const double cpu0 = process_cpu_s();
  std::thread pacer([&] {
    pin_current_thread(placement().generator);
    const double tc0 = thread_cpu_s();
    for (uint64_t g = 0; g < sch.frames; ++g) {
      const unsigned c = static_cast<unsigned>(g % kClients);
      const uint64_t j = sch.base[c] + g / kClients;
      const int64_t due = sch.due(g);
      int64_t t;
      while ((t = now_ns()) < due) {
      }
      late[g] = t - due;
      const auto ops = frame_ops(in_.open[c], j);
      const double cpu_before = thread_cpu_s();
      const condyn::BatchResult res = dc_.apply_batch(ops);
      const int64_t done = now_ns();
      busy_cpu_s += thread_cpu_s() - cpu_before;
      r.frame_latency_ns[g] = clamp_ns(done - due);
      logs[c].status[j] = static_cast<uint8_t>(wire::Status::kOk);
      for (unsigned k = 0; k < kFrameOps; ++k) {
        logs[c].values[j * kFrameOps + k] = res.values[k] != 0;
        r.bad_values += !value_in_range(ops[k], res.values[k], n);
      }
    }
    end = now_ns();
    r.gen_cpu_s = thread_cpu_s() - tc0;
    running.fetch_sub(1);
  });
  wait_sampling(running, sampler);
  pacer.join();
  r.proc_cpu_s = process_cpu_s() - cpu0;
  r.program_cpu_s = busy_cpu_s;
  r.wall_s = static_cast<double>(end - sch.t0) / 1e9;
  r.ops_ok = r.frames * kFrameOps;
  finish_step(r, std::move(late));
  return r;
}

// --- loopback ----------------------------------------------------------------

LoopbackTransport::LoopbackTransport(uint16_t port, const Inputs& in) : in_(in) {
  fds_.fill(-1);
  try {
    connect_all(port);
  } catch (...) {
    close_all();
    throw;
  }
}

LoopbackTransport::~LoopbackTransport() { close_all(); }

void LoopbackTransport::connect_all(uint16_t port) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
  for (unsigned c = 0; c < kClients; ++c) {
    fds_[c] = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fds_[c] < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fds_[c], reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("connect to the in-process server failed");
    }
    const int one = 1;
    ::setsockopt(fds_[c], IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = c;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fds_[c], &ev) != 0) {
      throw std::runtime_error("epoll_ctl failed");
    }
  }
}

void LoopbackTransport::close_all() noexcept {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (epfd_ >= 0) ::close(epfd_);
  epfd_ = -1;
}

StepResult LoopbackTransport::run_step(double rate, double seconds,
                                       FrameLogs& logs,
                                       const std::function<void()>* sampler) {
  const Schedule sch(rate, seconds, logs);
  StepResult r;
  r.rate = rate;
  r.frames = sch.frames;
  r.frame_latency_ns.assign(sch.frames, kRefused);
  std::vector<int64_t> late(sch.frames, 0);
#if PERFBENCH_TRACED
  r.spans.resize(sch.frames);
  for (uint64_t g = 0; g < sch.frames; ++g) {
    r.spans[g].id = next_frame_id_ + g;
    r.spans[g].sched_ns = sch.due(g);
    r.spans[g].conn = static_cast<uint8_t>(g % kClients);
  }
#endif
  next_frame_id_ += sch.frames;
  std::atomic<unsigned> running{1};
  int64_t end = sch.t0;
  const Vertex n = static_cast<Vertex>(in_.graph.num_vertices());

  const double cpu0 = process_cpu_s();
  std::thread gen([&] {
    pin_current_thread(placement().generator);
    const double tc0 = thread_cpu_s();
    std::array<std::vector<uint8_t>, kClients> out, in;
    std::array<std::size_t, kClients> out_pos{}, in_pos{};
    std::array<uint64_t, kClients> got{};
    uint64_t next = 0, answered = 0;
    const int64_t deadline = sch.due(sch.frames) + kAnswerTimeoutNs;
    uint8_t chunk[1 << 16];

    const auto flush = [&](unsigned c) {
      while (out_pos[c] < out[c].size()) {
        const ssize_t k = ::send(fds_[c], out[c].data() + out_pos[c],
                                 out[c].size() - out_pos[c],
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (k > 0) {
          out_pos[c] += static_cast<std::size_t>(k);
        } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          r.send_blocked = true;  // the server is not reading
          return;
        } else if (!(k < 0 && errno == EINTR)) {
          throw std::runtime_error("send failed");
        }
      }
      out[c].clear();
      out_pos[c] = 0;
    };

    const auto on_answer = [&](unsigned c, const wire::FrameView& f, int64_t t) {
      if (f.type != wire::FrameType::kResults) throw std::runtime_error("frame type");
      const wire::Results res = wire::decode_results(f.payload);
      const uint64_t jl = got[c]++;
      const uint64_t g = jl * kClients + c;
      if (g >= next) throw std::runtime_error("answer to a frame not sent");
      const uint64_t j = sch.base[c] + jl;
#if PERFBENCH_TRACED
      r.spans[g].recv_ns = t;
      r.spans[g].decode_ns = clamp_ns(now_ns() - t);
      r.spans[g].ok = res.status == wire::Status::kOk;
#endif
      logs[c].status[j] = static_cast<uint8_t>(res.status);
      ++answered;
      switch (res.status) {
        case wire::Status::kOk: {
          if (res.values.size() != kFrameOps) throw std::runtime_error("value count");
          r.frame_latency_ns[g] = clamp_ns(t - sch.due(g));
          r.ops_ok += kFrameOps;
          const auto ops = frame_ops(in_.open[c], j);
          for (unsigned k = 0; k < kFrameOps; ++k) {
            logs[c].values[j * kFrameOps + k] = res.values[k] != 0;
            r.bad_values += !value_in_range(ops[k], res.values[k], n);
          }
          break;
        }
        case wire::Status::kOverloaded:
          r.ops_shed += kFrameOps;
          break;
        case wire::Status::kBadFrame:
          ++r.bad_frames;
          r.ops_failed += kFrameOps;
          break;
        default:
          r.ops_failed += kFrameOps;
          break;
      }
    };

    try {
      while (answered < sch.frames) {
        const int64_t t = now_ns();
        if (t > deadline) throw std::runtime_error("answers timed out");
        // Send every frame that is due, in schedule order.
        while (next < sch.frames && sch.due(next) <= t) {
          const unsigned c = static_cast<unsigned>(next % kClients);
          const uint64_t j = sch.base[c] + next / kClients;
          late[next] = t - sch.due(next);
          const auto ops = frame_ops(in_.open[c], j);
#if PERFBENCH_TRACED
          const int64_t t_encode = now_ns();
#endif
          wire::encode_ops_frame(ops, out[c]);
#if PERFBENCH_TRACED
          r.spans[next].send_ns = now_ns();
          r.spans[next].encode_ns = clamp_ns(r.spans[next].send_ns - t_encode);
          r.spans[next].pure_read = condyn::all_reads(ops);
#endif
          ++next;
          flush(c);
        }
        for (unsigned c = 0; c < kClients; ++c) {
          if (out_pos[c] < out[c].size()) flush(c);
        }
        // Drain whatever answers have arrived.
        epoll_event evs[kClients];
        const int ne = ::epoll_wait(epfd_, evs, kClients, 0);
        if (ne < 0 && errno != EINTR) throw std::runtime_error("epoll_wait failed");
        for (int i = 0; i < std::max(ne, 0); ++i) {
          const unsigned c = evs[i].data.u32;
          for (;;) {
            const ssize_t k = ::recv(fds_[c], chunk, sizeof chunk, MSG_DONTWAIT);
            if (k > 0) {
              in[c].insert(in[c].end(), chunk, chunk + k);
              continue;
            }
            if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (k < 0 && errno == EINTR) continue;
            throw std::runtime_error("connection closed");
          }
          const int64_t arrived = now_ns();
          while (auto f = wire::try_frame(
                     std::span<const uint8_t>(in[c]).subspan(in_pos[c]))) {
            on_answer(c, *f, arrived);
            in_pos[c] += f->frame_bytes;
          }
          if (in_pos[c] == in[c].size()) {
            in[c].clear();
            in_pos[c] = 0;
          }
        }
      }
    } catch (const std::exception&) {
      r.connection_error = true;
    }
    end = now_ns();
    r.gen_cpu_s = thread_cpu_s() - tc0;
    running.fetch_sub(1);
  });

  wait_sampling(running, sampler);
  gen.join();
  r.proc_cpu_s = process_cpu_s() - cpu0;
  r.program_cpu_s = r.proc_cpu_s - r.gen_cpu_s;
  r.wall_s = static_cast<double>(end - sch.t0) / 1e9;
  // Frames never answered count as failed.
  r.ops_failed += sch.frames * kFrameOps - (r.ops_ok + r.ops_shed + r.ops_failed);
  finish_step(r, std::move(late));
  r.gen_invalid = r.late_p99_us > kGenLateUs && !r.send_blocked;
  return r;
}

}  // namespace perfbench
