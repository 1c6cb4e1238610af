// loadgen: multi-process open-loop load generator for condyn_server
// (DESIGN.md §12.5). Replays a DCTR trace's op stream against the wire::
// protocol at a *target* arrival rate — frames are stamped with their
// scheduled send time and latency is measured from that schedule, not from
// the actual write, so sender backlog shows up as latency (the open-loop
// discipline: the offered load does not slow down because the server is
// slow). Emits the harness JSON schema (section "serve") with achieved vs
// offered rate, shed counts, and p50/p99/p999 end-to-end latency.
//
//   loadgen --port P [--host 127.0.0.1] [--trace t.dctr]
//           [--rate OPS_PER_SEC] [--connections 8] [--processes 1]
//           [--duration 10] [--batch 8] [--poisson] [--seed 42]
//           [--json out.json]
//
//   loadgen --make-trace t.dctr [--vertices 4096] [--ops 200000] [--seed 42]
//       freeze the harness "random" scenario into a DCTR file (a
//       self-contained way for CI to produce a replayable trace).
//
// Without --trace, the op stream is synthesized in-memory the same way
// --make-trace would (reported as trace="synthetic"). With --processes > 1
// the connections are split across forked children, each with its own
// sender/receiver threads; a pipe carries counts + latency samples back.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "server/client.hpp"

namespace {

using namespace condyn;

struct Args {
  std::string host = "127.0.0.1";
  uint16_t port = 7421;
  std::string trace_path;
  std::string make_trace;   // utility mode: write a trace and exit
  double rate = 10000;      // aggregate target ops/sec
  unsigned connections = 8;
  unsigned processes = 1;
  double duration_s = 10;
  unsigned batch = 8;       // ops per frame
  bool poisson = false;     // exponential inter-frame gaps (default: paced)
  uint64_t seed = 42;
  Vertex vertices = 4096;   // synthetic trace size
  uint64_t ops = 200000;    // synthetic trace length
  std::string json_path;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "loadgen: %s\n", msg);
  std::fprintf(stderr,
               "usage: loadgen --port P [--host H] [--trace t.dctr] "
               "[--rate R] [--connections C] [--processes N] [--duration S] "
               "[--batch B] [--poisson] [--seed S] [--json out.json]\n"
               "       loadgen --make-trace t.dctr [--vertices N] [--ops M]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (++i >= argc) usage(("missing value for " + flag).c_str());
      return argv[i];
    };
    if (flag == "--host") a.host = next();
    else if (flag == "--port") a.port = static_cast<uint16_t>(std::stoul(next()));
    else if (flag == "--trace") a.trace_path = next();
    else if (flag == "--make-trace") a.make_trace = next();
    else if (flag == "--rate") a.rate = std::stod(next());
    else if (flag == "--connections") a.connections = static_cast<unsigned>(std::stoul(next()));
    else if (flag == "--processes") a.processes = static_cast<unsigned>(std::stoul(next()));
    else if (flag == "--duration") a.duration_s = std::stod(next());
    else if (flag == "--batch") a.batch = static_cast<unsigned>(std::stoul(next()));
    else if (flag == "--poisson") a.poisson = true;
    else if (flag == "--seed") a.seed = std::stoull(next());
    else if (flag == "--vertices") a.vertices = static_cast<Vertex>(std::stoul(next()));
    else if (flag == "--ops") a.ops = std::stoull(next());
    else if (flag == "--json") a.json_path = next();
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.connections == 0 || a.processes == 0 || a.batch == 0)
    usage("--connections/--processes/--batch must be positive");
  if (a.processes > a.connections) usage("--processes exceeds --connections");
  if (a.rate <= 0) usage("--rate must be positive");
  return a;
}

/// The harness "random" scenario frozen into a trace — the same op stream
/// --make-trace writes and the synthetic fallback replays.
io::Trace synthesize_trace(const Args& a) {
  const harness::ScenarioInfo* s = harness::find_scenario("random");
  if (s == nullptr) usage("scenario 'random' not registered");
  const Graph g = gen::random_components(a.vertices, a.vertices * 4, 4, a.seed);
  harness::RunConfig cfg;
  cfg.threads = 1;
  cfg.seed = a.seed;
  return harness::record_trace(*s, g, cfg, a.ops);
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one connection's sender/receiver pair produces.
struct ConnResult {
  uint64_t frames_sent = 0;
  uint64_t ops_sent = 0;
  uint64_t ops_acked = 0;
  uint64_t ops_shed = 0;
  uint64_t ops_failed = 0;
  std::vector<uint64_t> latency_ns;  // one sample per answered frame
};

/// One connection: a sender thread paces frames by the open-loop schedule
/// while the receiver thread matches responses in order and measures from
/// the *scheduled* send time.
ConnResult run_connection(const Args& a, const io::Trace& trace,
                          unsigned global_index, unsigned total_conns) {
  ConnResult r;
  server::BlockingClient cli;
  cli.connect(a.host, a.port);

  // Connection g replays ops [g*batch, g*batch+batch), stride total*batch —
  // a round-robin split of the one trace across every connection of every
  // process, wrapping when the trace runs out.
  const uint64_t stride = static_cast<uint64_t>(total_conns) * a.batch;
  uint64_t cursor = static_cast<uint64_t>(global_index) * a.batch;

  // Per-connection frame interval holding the aggregate rate: each frame
  // carries `batch` ops and `total_conns` connections send concurrently.
  const double frame_interval_ns =
      1e9 * static_cast<double>(a.batch) * total_conns / a.rate;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int64_t> scheduled;  // send schedule, consumed by the receiver
  bool done = false;

  std::thread receiver([&] {
    for (;;) {
      int64_t t0;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return !scheduled.empty() || done; });
        if (scheduled.empty()) return;
        t0 = scheduled.front();
        scheduled.pop_front();
      }
      try {
        const wire::Results res = cli.recv_results();
        const int64_t dt = now_ns() - t0;
        if (res.status == wire::Status::kOk) {
          r.ops_acked += res.values.size();
          r.latency_ns.push_back(static_cast<uint64_t>(std::max<int64_t>(dt, 0)));
        } else if (res.status == wire::Status::kOverloaded) {
          r.ops_shed += a.batch;
        } else {
          r.ops_failed += a.batch;
        }
      } catch (const std::exception&) {
        r.ops_failed += a.batch;
        return;  // connection is gone; sender will notice on write
      }
    }
  });

  std::mt19937_64 rng(a.seed ^ (0x9e3779b97f4a7c15ull * (global_index + 1)));
  std::exponential_distribution<double> exp_gap(1.0 / frame_interval_ns);
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(a.duration_s * 1e9);
  double next_send = static_cast<double>(start);
  std::vector<Op> frame(a.batch);

  while (static_cast<int64_t>(next_send) < deadline) {
    const auto scheduled_at = static_cast<int64_t>(next_send);
    // Open-loop: sleep only until the *schedule* says send, never because
    // the server is slow. A late sender sends immediately and the lateness
    // lands in the measured latency.
    const int64_t now = now_ns();
    if (scheduled_at > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled_at - now));
    }
    for (unsigned i = 0; i < a.batch; ++i) {
      frame[i] = trace.ops[(cursor + i) % trace.ops.size()];
    }
    cursor += stride;
    {
      std::lock_guard lk(mu);
      scheduled.push_back(scheduled_at);
    }
    cv.notify_one();
    try {
      cli.send_ops(frame);
    } catch (const std::exception&) {
      break;  // server closed on us; stop offering
    }
    r.frames_sent += 1;
    r.ops_sent += a.batch;
    next_send += a.poisson ? exp_gap(rng) : frame_interval_ns;
  }
  {
    std::lock_guard lk(mu);
    done = true;
  }
  cv.notify_one();
  receiver.join();
  return r;
}

/// One process's share: its connections run concurrently, results merged.
ConnResult run_process(const Args& a, const io::Trace& trace,
                       unsigned first_conn, unsigned count,
                       unsigned total_conns) {
  std::vector<ConnResult> results(count);
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    threads.emplace_back([&, i] {
      try {
        results[i] = run_connection(a, trace, first_conn + i, total_conns);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "loadgen: connection %u: %s\n", first_conn + i,
                     e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  ConnResult merged;
  for (ConnResult& r : results) {
    merged.frames_sent += r.frames_sent;
    merged.ops_sent += r.ops_sent;
    merged.ops_acked += r.ops_acked;
    merged.ops_shed += r.ops_shed;
    merged.ops_failed += r.ops_failed;
    merged.latency_ns.insert(merged.latency_ns.end(), r.latency_ns.begin(),
                             r.latency_ns.end());
  }
  return merged;
}

void write_all(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t n = write(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      std::_Exit(3);
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

bool read_all(int fd, void* buf, std::size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t n = read(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

double pct_us(const std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      std::min<double>(std::ceil(q * static_cast<double>(sorted_ns.size())),
                       static_cast<double>(sorted_ns.size())) -
      1);
  return static_cast<double>(sorted_ns[idx]) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse_args(argc, argv);

  if (!a.make_trace.empty()) {
    const io::Trace t = synthesize_trace(a);
    io::save_trace_file(t, a.make_trace);
    std::printf("loadgen: wrote %zu ops over %u vertices to %s\n",
                t.ops.size(), t.num_vertices, a.make_trace.c_str());
    return 0;
  }

  const io::Trace trace =
      a.trace_path.empty() ? synthesize_trace(a)
                           : io::load_trace_file(a.trace_path);
  if (trace.ops.empty()) usage("trace has no ops");

  // Fork the children *before* any threads exist; each sends back
  // 5 x u64 counters + sample count + the raw latency samples.
  const unsigned per_child = a.connections / a.processes;
  const unsigned remainder = a.connections % a.processes;
  std::vector<int> pipes;
  std::vector<pid_t> pids;
  unsigned next_conn = 0;
  const int64_t bench_start = now_ns();
  for (unsigned p = 0; p < a.processes; ++p) {
    const unsigned count = per_child + (p < remainder ? 1 : 0);
    const unsigned first = next_conn;
    next_conn += count;
    int fds[2];
    if (pipe(fds) < 0) {
      std::perror("loadgen: pipe");
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("loadgen: fork");
      return 1;
    }
    if (pid == 0) {
      close(fds[0]);
      const ConnResult r =
          run_process(a, trace, first, count, a.connections);
      const uint64_t header[6] = {r.frames_sent, r.ops_sent,     r.ops_acked,
                                  r.ops_shed,    r.ops_failed,
                                  r.latency_ns.size()};
      write_all(fds[1], header, sizeof header);
      write_all(fds[1], r.latency_ns.data(),
                r.latency_ns.size() * sizeof(uint64_t));
      close(fds[1]);
      std::_Exit(0);
    }
    close(fds[1]);
    pipes.push_back(fds[0]);
    pids.push_back(pid);
  }

  ConnResult total;
  bool child_failed = false;
  for (std::size_t p = 0; p < pids.size(); ++p) {
    uint64_t header[6];
    if (read_all(pipes[p], header, sizeof header)) {
      total.frames_sent += header[0];
      total.ops_sent += header[1];
      total.ops_acked += header[2];
      total.ops_shed += header[3];
      total.ops_failed += header[4];
      std::vector<uint64_t> samples(header[5]);
      if (read_all(pipes[p], samples.data(),
                   samples.size() * sizeof(uint64_t))) {
        total.latency_ns.insert(total.latency_ns.end(), samples.begin(),
                                samples.end());
      } else {
        child_failed = true;
      }
    } else {
      child_failed = true;
    }
    close(pipes[p]);
    int status = 0;
    waitpid(pids[p], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) child_failed = true;
  }
  const double elapsed_s =
      static_cast<double>(now_ns() - bench_start) / 1e9;

  std::sort(total.latency_ns.begin(), total.latency_ns.end());
  const double achieved =
      elapsed_s > 0 ? static_cast<double>(total.ops_acked) / elapsed_s : 0;

  // Final server-side view, from a fresh probe connection.
  wire::StatusReport probe{};
  bool probed = false;
  try {
    server::BlockingClient cli;
    cli.connect(a.host, a.port);
    probe = cli.status();
    probed = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: status probe failed: %s\n", e.what());
  }

  harness::JsonReport json("condyn-serve");
  json.meta("host", a.host);
  json.meta("trace", a.trace_path.empty() ? std::string("synthetic")
                                          : a.trace_path);
  json.meta("arrival", a.poisson ? "poisson" : "paced");
  auto& rec = json.add_record();
  rec.field("section", "serve")
      .field("offered_rate", a.rate)
      .field("achieved_rate", achieved)
      .field("connections", static_cast<uint64_t>(a.connections))
      .field("processes", static_cast<uint64_t>(a.processes))
      .field("batch", static_cast<uint64_t>(a.batch))
      .field("duration_s", elapsed_s)
      .field("frames_sent", total.frames_sent)
      .field("ops_sent", total.ops_sent)
      .field("ops_acked", total.ops_acked)
      .field("ops_shed", total.ops_shed)
      .field("ops_failed", total.ops_failed)
      .field("latency_us_p50", pct_us(total.latency_ns, 0.50))
      .field("latency_us_p99", pct_us(total.latency_ns, 0.99))
      .field("latency_us_p999", pct_us(total.latency_ns, 0.999));
  if (probed) {
    rec.field("server_acked", probe.acked)
        .field("server_queue_depth", probe.queue_depth)
        .field("server_journal_errors", probe.journal_errors)
        .field("server_batches", probe.batches);
  }
  const std::string text = harness::json_report(json);
  std::fputs(text.c_str(), stdout);
  std::fputc('\n', stdout);
  if (!a.json_path.empty()) json.save_file(a.json_path);

  if (child_failed) {
    std::fprintf(stderr, "loadgen: a child process failed\n");
    return 1;
  }
  return 0;
}
