#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace condyn::server {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("server: " + what + ": " + std::strerror(errno));
}

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? std::strtoull(s, nullptr, 10) : fallback;
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Compact a buffer whose consumed prefix has grown past the threshold —
/// erasing on every frame would be quadratic on pipelined streams.
constexpr std::size_t kCompactThreshold = 64 * 1024;
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

ServerOptions env_server_options() {
  ServerOptions o;
  if (const char* s = std::getenv("DC_SERVER_BIND"); s != nullptr && *s) {
    o.bind_address = s;
  }
  o.port = static_cast<uint16_t>(env_u64("DC_SERVER_PORT", o.port));
  o.threads = static_cast<unsigned>(
      std::max<uint64_t>(1, env_u64("DC_SERVER_THREADS", o.threads)));
  o.max_inflight_frames = static_cast<uint32_t>(std::max<uint64_t>(
      1, env_u64("DC_SERVER_INFLIGHT", o.max_inflight_frames)));
  o.byte_budget = static_cast<std::size_t>(
      std::max<uint64_t>(1 << 16, env_u64("DC_SERVER_BYTES", o.byte_budget)));
  o.drain_timeout_ms = static_cast<unsigned>(
      env_u64("DC_SERVER_DRAIN_MS", o.drain_timeout_ms));
  return o;
}

/// One request frame awaiting its in-order response. Either pre-encoded
/// (`ready`: shed, status, bad-frame, shutting-down answers) or ticketed —
/// ops submitted to the ingest ring, the response assembled from ticket
/// values once the group commit acknowledges the last one.
struct PendingResponse {
  std::vector<uint8_t> ready;
  bool ticketed = false;
  /// Status probe queued behind in-flight frames: encoded at *flush* time,
  /// so the report reflects the state after everything ahead of it
  /// committed — what an in-order health probe should observe.
  bool status_probe = false;
  std::vector<Op> ops;
  std::unique_ptr<ingest::Ticket[]> tickets;
};

struct Server::Connection {
  int fd = -1;
  std::vector<uint8_t> rbuf;
  std::size_t rpos = 0;
  std::vector<uint8_t> wbuf;
  std::size_t wpos = 0;
  std::deque<PendingResponse> pending;
  bool read_eof = false;  ///< client half-closed; finish responses, then close
  bool closing = false;   ///< close once the write buffer drains (bad frame)
  bool want_write = false;
  std::size_t accounted = 0;  ///< bytes charged against the global budget
};

struct Server::Worker {
  int epfd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::mutex mu;
  std::vector<int> incoming;  ///< fds handed over by the acceptor
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
};

Server::Server(DynamicConnectivity& dc, ingest::IngestService& svc,
               ServerOptions opts)
    : dc_(dc), svc_(svc), opts_(std::move(opts)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) fail_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("server: bad bind address " + opts_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    fail_errno("bind/listen on port " + std::to_string(opts_.port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) < 0) fail_errno("pipe2");
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (spare_fd_ < 0) fail_errno("open /dev/null");

  for (unsigned i = 0; i < opts_.threads; ++i) {
    auto w = std::make_unique<Worker>();
    w->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    w->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (w->epfd < 0 || w->wake_fd < 0) fail_errno("epoll_create1/eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->wake_fd;
    ::epoll_ctl(w->epfd, EPOLL_CTL_ADD, w->wake_fd, &ev);
    workers_.push_back(std::move(w));
  }
  draining_.store(false, std::memory_order_release);
  started_ = true;
  for (auto& w : workers_) {
    Worker* wp = w.get();
    wp->thread = std::thread([this, wp] { worker_main(*wp); });
  }
  acceptor_ = std::thread([this] { acceptor_main(); });
}

void Server::stop() {
  if (!started_) return;
  draining_.store(true, std::memory_order_release);
  // Wake the acceptor's poll() and every worker's epoll_wait().
  char b = 1;
  (void)!::write(stop_pipe_[1], &b, 1);
  for (auto& w : workers_) {
    const uint64_t v = 1;
    (void)!::write(w->wake_fd, &v, sizeof v);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
    ::close(w->wake_fd);
    ::close(w->epfd);
  }
  workers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  if (spare_fd_ >= 0) ::close(spare_fd_);
  spare_fd_ = -1;
  started_ = false;
}

void Server::acceptor_main() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || draining_.load(std::memory_order_acquire))
      break;
    for (;;) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        // Out of descriptors, the pending connection would keep the listen
        // fd readable and poll() would return at once, forever: shed it.
        if (errno == EMFILE || errno == ENFILE) {
          if (reject_pending()) continue;
          // No spare to free: wait rather than spin.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        // EAGAIN: accepted everything pending; anything else (ECONNABORTED)
        // is per-connection — log-free skip, keep serving.
        break;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      accepted_.fetch_add(1, std::memory_order_relaxed);
      Worker& w = *workers_[next_worker_.fetch_add(
                               1, std::memory_order_relaxed) %
                           workers_.size()];
      {
        std::lock_guard lk(w.mu);
        w.incoming.push_back(fd);
      }
      const uint64_t v = 1;
      (void)!::write(w.wake_fd, &v, sizeof v);
    }
  }
}

bool Server::reject_pending() {
  // Free the reserved descriptor, accept the pending connection into it and
  // close that at once (the client sees EOF), then reserve the spare again.
  if (spare_fd_ >= 0) ::close(spare_fd_);
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd >= 0) {
    ::close(fd);
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return fd >= 0;
}

void Server::adopt_incoming(Worker& w) {
  std::vector<int> fds;
  {
    std::lock_guard lk(w.mu);
    fds.swap(w.incoming);
  }
  for (const int fd : fds) {
    if (draining_.load(std::memory_order_acquire)) {
      // Handed over after the drain began: nothing of theirs is in flight.
      ::close(fd);
      closed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto c = std::make_unique<Connection>();
    c->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(w.epfd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      closed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    w.conns.emplace(fd, std::move(c));
  }
}

void Server::worker_main(Worker& w) {
  epoll_event events[64];
  int64_t drain_deadline = 0;
  for (;;) {
    adopt_incoming(w);

    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && drain_deadline == 0) {
      drain_deadline =
          now_ns() + static_cast<int64_t>(opts_.drain_timeout_ms) * 1'000'000;
    }

    bool any_pending = false;
    for (auto& [fd, c] : w.conns) {
      if (!c->pending.empty()) {
        any_pending = true;
        break;
      }
    }
    // Ticket completion is polled (the applier has no callback hook), so
    // sleep shortly while group commits are in flight; park longer when the
    // worker is idle — the eventfd wakes it for new connections and stop().
    const int timeout_ms = any_pending ? 1 : (draining ? 10 : 200);
    const int n = ::epoll_wait(w.epfd, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == w.wake_fd) {
        uint64_t v;
        (void)!::read(w.wake_fd, &v, sizeof v);
        continue;
      }
      const auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;  // closed earlier in this batch
      Connection& c = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        close_conn(w, c);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) on_writable(w, c);
      if (w.conns.find(fd) == w.conns.end()) continue;
      if ((events[i].events & EPOLLIN) != 0) on_readable(w, c);
    }

    // Completion pass: answer every frame whose group commit finished, in
    // request order, and retire connections that are done.
    std::vector<int> finished;
    for (auto& [fd, c] : w.conns) {
      flush_completions(w, *c);
      if (c->fd < 0) {
        finished.push_back(fd);
        continue;
      }
      const bool drained = c->pending.empty() && c->wpos == c->wbuf.size();
      const bool force = draining && drain_deadline != 0 &&
                         now_ns() >= drain_deadline;
      if (((c->closing || c->read_eof || draining) && drained) || force) {
        close_conn(w, *c);
        finished.push_back(fd);
      }
    }
    for (const int fd : finished) w.conns.erase(fd);

    if (draining && w.conns.empty()) {
      std::lock_guard lk(w.mu);
      if (w.incoming.empty()) break;
    }
  }
  for (auto& [fd, c] : w.conns) {
    if (c->fd >= 0) close_conn(w, *c);
  }
  w.conns.clear();
}

void Server::on_readable(Worker& w, Connection& c) {
  uint8_t tmp[kReadChunk];
  for (;;) {
    const ssize_t n = ::read(c.fd, tmp, sizeof tmp);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      if (!c.closing) {
        c.rbuf.insert(c.rbuf.end(), tmp, tmp + n);
      }
      if (n < static_cast<ssize_t>(sizeof tmp)) break;
      continue;
    }
    if (n == 0) {
      c.read_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(w, c);
    return;
  }
  parse_frames(w, c);
  update_accounting(c);
}

void Server::on_writable(Worker& w, Connection& c) {
  try_flush_writes(w, c);
}

void Server::parse_frames(Worker& w, Connection& c) {
  while (!c.closing) {
    const std::span<const uint8_t> rest(c.rbuf.data() + c.rpos,
                                        c.rbuf.size() - c.rpos);
    try {
      const std::optional<wire::FrameView> f = wire::try_frame(rest);
      if (!f) break;
      handle_frame(w, c, *f);
      c.rpos += f->frame_bytes;
    } catch (const std::exception&) {
      // Hopeless header or a payload that failed strict decode: answer
      // kBadFrame (in order, behind anything in flight) and close once the
      // response drains — after a framing error the byte stream can no
      // longer be trusted to re-synchronize.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      std::vector<uint8_t> resp;
      wire::encode_results_frame(wire::Status::kBadFrame, {}, resp);
      enqueue_ready(c, resp);
      c.closing = true;
      c.rbuf.clear();
      c.rpos = 0;
      break;
    }
  }
  if (c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  } else if (c.rpos > kCompactThreshold) {
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rpos));
    c.rpos = 0;
  }
}

void Server::enqueue_ready(Connection& c, const std::vector<uint8_t>& frame) {
  if (c.pending.empty()) {
    // Nothing ahead of it: skip the queue and write directly.
    c.wbuf.insert(c.wbuf.end(), frame.begin(), frame.end());
    return;
  }
  PendingResponse p;
  p.ready = frame;
  c.pending.push_back(std::move(p));
}

void Server::shed(Connection& c, wire::Status status) {
  shed_frames_.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint8_t> resp;
  wire::encode_results_frame(status, {}, resp);
  enqueue_ready(c, resp);
}

void Server::handle_frame(Worker& w, Connection& c,
                          const wire::FrameView& f) {
  switch (f.type) {
    case wire::FrameType::kStatusRequest: {
      wire::check_status_request(f.payload);  // throws -> bad-frame path
      status_frames_.fetch_add(1, std::memory_order_relaxed);
      if (c.pending.empty()) {
        std::vector<uint8_t> resp;
        wire::encode_status_response(status_report(), resp);
        c.wbuf.insert(c.wbuf.end(), resp.begin(), resp.end());
      } else {
        PendingResponse p;
        p.status_probe = true;
        c.pending.push_back(std::move(p));
      }
      return;
    }
    case wire::FrameType::kResults:
    case wire::FrameType::kStatusResponse:
      // Response types arriving at the server are a protocol violation.
      throw std::runtime_error("server: client sent a response frame");
    case wire::FrameType::kOps:
      break;
  }

  std::vector<Op> ops = wire::decode_ops(f.payload, dc_.num_vertices());
  frames_.fetch_add(1, std::memory_order_relaxed);
  ops_.fetch_add(ops.size(), std::memory_order_relaxed);

  if (draining_.load(std::memory_order_acquire)) {
    shed(c, wire::Status::kShuttingDown);
    return;
  }
  // Admission control (DESIGN.md §12.2), cheapest check first. A shed frame
  // is answered kOverloaded with nothing applied — the client retries or
  // backs off; the server never queues without bound.
  if (c.pending.size() >= opts_.max_inflight_frames) {
    shed(c, wire::Status::kOverloaded);
    return;
  }
  if (buffered_bytes_.load(std::memory_order_relaxed) > opts_.byte_budget) {
    shed(c, wire::Status::kOverloaded);
    return;
  }

  if (all_reads(ops) && c.pending.empty()) {
    // Pure-read frame with nothing in flight on this connection: serve it
    // inline on the worker via the variant's lock-free read paths — no ring
    // trip, no ticket, the common case for query-heavy clients.
    inline_reads_.fetch_add(1, std::memory_order_relaxed);
    const BatchResult res = dc_.apply_batch(ops);
    std::vector<uint8_t> resp;
    wire::encode_results_frame(wire::Status::kOk, res.values, resp);
    c.wbuf.insert(c.wbuf.end(), resp.begin(), resp.end());
    return;
  }

  // Frame-granular ring headroom: shedding *before* the first submit keeps
  // the frame atomic at admission (never half-enqueued), and keeps the
  // blocking backpressure path — sized for in-process producers, not a
  // worker that must return to its event loop — from stalling the server.
  const uint64_t depth = svc_.stats().queue_depth;
  if (depth + ops.size() > svc_.options().ring_capacity) {
    shed(c, wire::Status::kOverloaded);
    return;
  }

  // Update or mixed frame — and any read frame queued behind one (the FIFO
  // ring preserves per-connection program order: a client that adds an edge
  // and then asks connected() must see its own write).
  PendingResponse p;
  p.ticketed = true;
  p.ops = std::move(ops);
  p.tickets = std::make_unique<ingest::Ticket[]>(p.ops.size());
  c.pending.push_back(std::move(p));
  PendingResponse& back = c.pending.back();
  for (std::size_t i = 0; i < back.ops.size(); ++i) {
    if (!svc_.submit(back.ops[i], &back.tickets[i])) {
      // Refused (service stopping): submit() already marked this ticket
      // kDropped; mark the rest so the response assembles immediately.
      for (std::size_t j = i + 1; j < back.ops.size(); ++j) {
        back.tickets[j].state.store(ingest::Ticket::kDropped,
                                    std::memory_order_release);
      }
      break;
    }
  }
  (void)w;
}

void Server::flush_completions(Worker& w, Connection& c) {
  while (!c.pending.empty()) {
    PendingResponse& p = c.pending.front();
    if (p.status_probe) {
      std::vector<uint8_t> resp;
      wire::encode_status_response(status_report(), resp);
      c.wbuf.insert(c.wbuf.end(), resp.begin(), resp.end());
      c.pending.pop_front();
      continue;
    }
    if (!p.ticketed) {
      c.wbuf.insert(c.wbuf.end(), p.ready.begin(), p.ready.end());
      c.pending.pop_front();
      continue;
    }
    // The ring is FIFO and the applier acknowledges in drain order, so the
    // last ticket reaching a final state implies every earlier one has —
    // wait() below is a bounded formality, not a stall.
    const std::size_t count = p.ops.size();
    if (count > 0 && p.tickets[count - 1].state.load(
                         std::memory_order_acquire) == ingest::Ticket::kPending)
      break;
    std::vector<uint64_t> values;
    values.reserve(count);
    bool all_done = true;
    bool any_failed = false;
    for (std::size_t i = 0; i < count; ++i) {
      const uint32_t s = p.tickets[i].wait();
      if (s == ingest::Ticket::kDone) {
        values.push_back(p.tickets[i].value.load(std::memory_order_relaxed));
      } else {
        all_done = false;
        any_failed |= s == ingest::Ticket::kFailed;
      }
    }
    std::vector<uint8_t> resp;
    if (all_done) {
      wire::encode_results_frame(wire::Status::kOk, values, resp);
    } else {
      // Dropped tickets mean the service is stopping (or journal fail-stop
      // refused the batch); either way nothing past the failure applied.
      wire::encode_results_frame(
          any_failed ? wire::Status::kFailed : wire::Status::kShuttingDown, {},
          resp);
    }
    c.wbuf.insert(c.wbuf.end(), resp.begin(), resp.end());
    c.pending.pop_front();
  }
  try_flush_writes(w, c);
  update_accounting(c);
}

bool Server::try_flush_writes(Worker& w, Connection& c) {
  while (c.wpos < c.wbuf.size()) {
    const ssize_t n =
        ::write(c.fd, c.wbuf.data() + c.wpos, c.wbuf.size() - c.wpos);
    if (n > 0) {
      c.wpos += static_cast<std::size_t>(n);
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.want_write) {
        c.want_write = true;
        update_interest(w, c);
      }
      return false;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(w, c);
    return false;
  }
  if (c.wpos == c.wbuf.size()) {
    c.wbuf.clear();
    c.wpos = 0;
    if (c.want_write) {
      c.want_write = false;
      update_interest(w, c);
    }
  }
  return true;
}

void Server::update_interest(Worker& w, Connection& c) {
  epoll_event ev{};
  ev.events = EPOLLIN | (c.want_write ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  ::epoll_ctl(w.epfd, EPOLL_CTL_MOD, c.fd, &ev);
}

void Server::update_accounting(Connection& c) {
  const std::size_t total = c.rbuf.size() + (c.wbuf.size() - c.wpos);
  if (total >= c.accounted) {
    buffered_bytes_.fetch_add(total - c.accounted, std::memory_order_relaxed);
  } else {
    buffered_bytes_.fetch_sub(c.accounted - total, std::memory_order_relaxed);
  }
  c.accounted = total;
}

void Server::close_conn(Worker& w, Connection& c) {
  if (c.fd < 0) return;
  // Frames still pending carry tickets the applier may touch; wait them out
  // (they are final or imminently final — see flush_completions) before the
  // ticket storage goes away with the connection.
  for (PendingResponse& p : c.pending) {
    if (!p.ticketed) continue;
    for (std::size_t i = 0; i < p.ops.size(); ++i) p.tickets[i].wait();
  }
  c.pending.clear();
  buffered_bytes_.fetch_sub(c.accounted, std::memory_order_relaxed);
  c.accounted = 0;
  ::epoll_ctl(w.epfd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  closed_.fetch_add(1, std::memory_order_relaxed);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.ops = ops_.load(std::memory_order_relaxed);
  s.inline_reads = inline_reads_.load(std::memory_order_relaxed);
  s.shed_frames = shed_frames_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.status_frames = status_frames_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return s;
}

wire::StatusReport Server::status_report() const {
  const ingest::IngestStats st = svc_.stats();
  wire::StatusReport r;
  r.num_vertices = dc_.num_vertices();
  r.queue_depth = st.queue_depth;
  r.submitted = st.submitted;
  r.acked = st.acked;
  r.dropped = st.dropped;
  r.shed_reads = st.shed_reads;
  r.failed = st.failed;
  r.journal_errors = st.journal_errors;
  r.batches = st.batches;
  return r;
}

}  // namespace condyn::server
