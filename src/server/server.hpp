#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/dynamic_connectivity.hpp"
#include "graph/wire.hpp"
#include "ingest/ingest.hpp"

namespace condyn::server {

/// Connectivity-as-a-service front-end (DESIGN.md §12): a non-blocking
/// epoll event loop — one acceptor plus DC_SERVER_THREADS worker threads,
/// each owning a private epoll set of connections — speaking the wire::
/// framing of the Op/BatchResult vocabulary. Per-connection request frames
/// are funneled as whole batches into the IngestService group commit
/// (updates and mixed frames, preserving per-connection program order
/// through the FIFO ring) or executed inline on the worker via the
/// lock-free read paths (pure-read frames with nothing in flight).
///
/// Admission control sheds rather than queues without bound: a frame is
/// answered kOverloaded — nothing applied — when the connection already has
/// max_inflight_frames awaiting group commit, when the server-wide buffered
/// byte budget is exhausted, or when the ingest ring lacks headroom for the
/// whole frame. Responses are written strictly in request order, so a shed
/// decision is queued behind earlier in-flight frames' responses.
struct ServerOptions {
  std::string bind_address = "0.0.0.0";  ///< DC_SERVER_BIND
  uint16_t port = 7421;                  ///< DC_SERVER_PORT; 0 = ephemeral
  unsigned threads = 2;                  ///< DC_SERVER_THREADS (workers)
  /// Frames per connection decoded but not yet answered (beyond the one
  /// being considered) before new ops frames are shed (DC_SERVER_INFLIGHT).
  uint32_t max_inflight_frames = 8;
  /// Server-wide bound on buffered bytes (receive + send buffers across
  /// every connection); ops frames are shed above it (DC_SERVER_BYTES).
  std::size_t byte_budget = 64u << 20;
  /// Grace period for the stop() drain: connections whose clients never
  /// read their final responses are force-closed after this many ms
  /// (DC_SERVER_DRAIN_MS).
  unsigned drain_timeout_ms = 5000;
};

/// Options resolved from DC_SERVER_BIND/PORT/THREADS/INFLIGHT/BYTES/
/// DRAIN_MS, everything else default.
ServerOptions env_server_options();

/// Monotone service counters (approximate while running).
struct ServerStats {
  uint64_t accepted = 0;      ///< connections accepted
  uint64_t closed = 0;        ///< connections closed (either side)
  /// Connections accepted and closed at once because the process was out
  /// of file descriptors (EMFILE/ENFILE); not counted in accepted/closed.
  uint64_t rejected = 0;
  uint64_t frames = 0;        ///< request frames fully processed
  uint64_t ops = 0;           ///< ops decoded from accepted frames
  uint64_t inline_reads = 0;  ///< pure-read frames served on the worker
  uint64_t shed_frames = 0;   ///< frames answered kOverloaded
  uint64_t bad_frames = 0;    ///< frames answered kBadFrame (conn closed)
  uint64_t status_frames = 0; ///< status probes answered
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

class Server {
 public:
  /// `dc` serves the read paths, `svc` the update/mixed frames; both must
  /// outlive the server, and svc must be attached to dc. stop() the server
  /// BEFORE svc.stop(): the drain waits on tickets the applier completes.
  Server(DynamicConnectivity& dc, ingest::IngestService& svc,
         ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn acceptor + workers. Throws std::runtime_error on
  /// socket/bind failure (e.g. port in use).
  void start();

  /// Graceful drain (the SIGTERM path, DESIGN.md §12.4): stop accepting,
  /// answer frames already received (new ops frames get kShuttingDown),
  /// flush every pending group commit's response, then close all
  /// connections and join the threads. Idempotent; the destructor calls it.
  void stop();

  /// The bound port (after start(); resolves port 0 to the ephemeral pick).
  uint16_t port() const noexcept { return port_; }

  ServerStats stats() const;

  /// The status frame the server answers probes with — exposed for tests
  /// and for the binary's shutdown log line.
  wire::StatusReport status_report() const;

 private:
  struct Connection;
  struct Worker;

  void acceptor_main();
  bool reject_pending();
  void worker_main(Worker& w);
  void adopt_incoming(Worker& w);
  void on_readable(Worker& w, Connection& c);
  void on_writable(Worker& w, Connection& c);
  void parse_frames(Worker& w, Connection& c);
  void handle_frame(Worker& w, Connection& c, const wire::FrameView& f);
  void enqueue_ready(Connection& c, const std::vector<uint8_t>& frame);
  void shed(Connection& c, wire::Status status);
  void flush_completions(Worker& w, Connection& c);
  bool try_flush_writes(Worker& w, Connection& c);
  void update_accounting(Connection& c);
  void close_conn(Worker& w, Connection& c);
  void update_interest(Worker& w, Connection& c);

  DynamicConnectivity& dc_;
  ingest::IngestService& svc_;
  ServerOptions opts_;

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  ///< wakes the acceptor's poll()
  /// A reserved descriptor the acceptor frees to accept-and-close a pending
  /// connection when the process is out of descriptors (reject_pending).
  int spare_fd_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> draining_{false};

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  std::atomic<std::size_t> next_worker_{0};

  std::atomic<std::size_t> buffered_bytes_{0};  ///< byte-budget accounting

  std::atomic<uint64_t> accepted_{0}, closed_{0}, rejected_{0}, frames_{0},
      ops_{0}, inline_reads_{0}, shed_frames_{0}, bad_frames_{0},
      status_frames_{0}, bytes_in_{0}, bytes_out_{0};
};

}  // namespace condyn::server
