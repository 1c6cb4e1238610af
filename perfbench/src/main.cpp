// perfbench: runs one workload for one seed and prints its metrics.
//
//   perfbench --workload embedded|serve-reads|serve-writes --seed N
//             --seconds S --ladder R1,R2,... --light R --heavy R
//             --work-dir DIR [--trace-out FILE]
//
// The untraced build prints the end-to-end metrics; the traced build
// (perfbench_traced) prints the per-layer metrics and, with --trace-out,
// dumps its spans as Chrome trace-event JSON. README.md in this directory
// defines every metric.

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/factory.hpp"
#include "checks.hpp"
#include "closed_loop.hpp"
#include "ingest/ingest.hpp"
#include "inputs.hpp"
#include "ladder.hpp"
#include "metrics.hpp"
#include "server/server.hpp"
#if PERFBENCH_TRACED
#include "layers.hpp"
#include "trace.hpp"
#include "traced_dc.hpp"
#endif

namespace {

using namespace perfbench;
namespace ingest = condyn::ingest;
namespace server = condyn::server;

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
/// Share of --seconds given to the open-loop ladder (the rest goes to the
/// closed loop), per workload family.
constexpr double kServeLadderShare = 0.4;
constexpr double kEmbeddedLadderShare = 0.3;
/// The named rates get this many times the time of another ladder step.
constexpr double kNamedStepWeight = 3;
#if PERFBENCH_TRACED
/// Spans of each kind written to the Chrome trace (the rest stay counted).
constexpr std::size_t kTraceCap = 20000;
#endif

struct Args {
  WorkloadKind kind = WorkloadKind::kEmbedded;
  uint64_t seed = 1;
  double seconds = 10;
  std::vector<double> ladder;
  double light = 0, heavy = 0;
  std::string work_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--ladder R1,R2,... --light R --heavy R --work-dir DIR "
               "[--trace-out FILE]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--light") a.light = std::stod(v);
    else if (flag == "--heavy") a.heavy = std::stod(v);
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--trace-out") a.trace_out = v;
    else if (flag == "--ladder") {
      std::size_t pos = 0;
      while (pos < v.size()) {
        const std::size_t comma = v.find(',', pos);
        a.ladder.push_back(std::stod(v.substr(pos, comma - pos)));
        pos = comma == std::string::npos ? v.size() : comma + 1;
      }
    } else usage("unknown flag " + flag);
  }
  if (!parse_workload(workload, a.kind)) usage("unknown workload '" + workload + "'");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.work_dir.empty()) usage("--work-dir is required");
  if (a.ladder.empty() || !std::is_sorted(a.ladder.begin(), a.ladder.end()) ||
      a.ladder.front() <= 0)
    usage("--ladder must be ascending positive rates");
  if (std::find(a.ladder.begin(), a.ladder.end(), a.light) == a.ladder.end() ||
      std::find(a.ladder.begin(), a.ladder.end(), a.heavy) == a.ladder.end())
    usage("--light and --heavy must be ladder rates");
  return a;
}

std::atomic<uint64_t> g_probe_sink{0};  ///< keeps the probe's work observable

/// A fixed CPU job; its time separates a slow host from a slow program.
double host_probe_ms() {
  const int64_t t0 = now_ns();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_probe_sink.store(x, std::memory_order_relaxed);
  return static_cast<double>(now_ns() - t0) / 1e6;
}

#if !PERFBENCH_TRACED
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}
#endif

#if PERFBENCH_TRACED
double file_bytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}
#endif

/// One set-up of the system under test, torn down in reverse order by the
/// member destructors (transport, server, ingest, decorator, structure).
struct Rig {
  Inputs in;
  std::unique_ptr<DynamicConnectivity> dc;
#if PERFBENCH_TRACED
  std::unique_ptr<TracedDc> traced;
#endif
  DynamicConnectivity* target = nullptr;  ///< what the loops drive
  std::unique_ptr<ingest::IngestService> svc;
  std::unique_ptr<server::Server> srv;
  std::unique_ptr<Transport> transport;
};

std::unique_ptr<Rig> build_rig(const Args& a, const std::string& snapshot,
                               const std::string& journal) {
  auto rig = std::make_unique<Rig>();
  rig->in = make_inputs(a.kind, a.seed, a.ladder);
  const Inputs& in = rig->in;
  rig->dc = condyn::make_variant("full", in.graph.num_vertices());
  const std::vector<condyn::Edge> prefill = prefill_edges(in);
  for (const condyn::Edge& e : prefill) rig->dc->add_edge(e.u, e.v);
  rig->target = rig->dc.get();
#if PERFBENCH_TRACED
  rig->traced = std::make_unique<TracedDc>(*rig->dc);
  rig->target = rig->traced.get();
#endif
  if (!is_serve(a.kind)) {
    rig->transport = std::make_unique<InProcessTransport>(*rig->target, in);
    return rig;
  }
  std::filesystem::remove(journal);
  std::filesystem::remove(snapshot);
  // The shipped defaults (environment knobs are not read), plus a journal
  // with fsync on, as condyn_server runs with DC_JOURNAL set.
  ingest::IngestOptions io;
  io.journal_path = journal;
  io.initial_edges = prefill;
  io.record_sojourn = PERFBENCH_TRACED != 0;
  rig->svc = std::make_unique<ingest::IngestService>(*rig->target, io);
#if PERFBENCH_TRACED
  // Tag the applier thread: nothing else calls apply_batch yet.
  rig->traced->expect_applier();
  ingest::Ticket t;
  rig->svc->submit(condyn::Op::connected(0, 0), &t);
  t.wait();
#endif
  server::ServerOptions so;
  so.bind_address = "127.0.0.1";
  so.port = 0;
  rig->srv = std::make_unique<server::Server>(*rig->target, *rig->svc, so);
  rig->srv->start();
  rig->svc->snapshot_to(snapshot);
  rig->transport = std::make_unique<LoopbackTransport>(rig->srv->port(), in);
  return rig;
}

struct LadderPlan {
  std::vector<double> rates, seconds;
};

LadderPlan plan_ladder(const Args& a, double budget_s) {
  LadderPlan p;
  double weight = 0;
  for (double r : a.ladder) {
    weight += (r == a.light || r == a.heavy) ? kNamedStepWeight : 1;
  }
  for (double r : a.ladder) {
    const double w = (r == a.light || r == a.heavy) ? kNamedStepWeight : 1;
    p.rates.push_back(r);
    p.seconds.push_back(budget_s * w / weight);
  }
  return p;
}

#if !PERFBENCH_TRACED
const StepResult& step_at(const std::vector<StepResult>& steps, double rate) {
  for (const StepResult& s : steps) {
    if (s.rate == rate) return s;
  }
  throw std::logic_error("no ladder step at the requested rate");
}
#endif

/// "steps": every ladder step's figures, for the context line.
std::string ladder_json(const std::vector<StepResult>& steps) {
  std::string out = "\"steps\": [";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    out += (i ? ", " : "") + std::string("{\"rate\": ") + json_number(s.rate) +
           ", \"frames\": " + std::to_string(s.frames) +
           ", \"windows\": " + std::to_string(s.windows) +
           ", \"p50_us\": " + json_number(s.p50_us) +
           ", \"p99_us\": " + json_number(s.p99_us) +
           ", \"p999_us\": " + json_number(percentile(s.latency_ns, 0.999) / 1e3) +
           ", \"refused_share\": " + json_number(s.refused_share) +
           ", \"shed_ops\": " + std::to_string(s.ops_shed) +
           ", \"late_p99_us\": " + json_number(s.late_p99_us) +
           ", \"cpu_us_per_op\": " +
           json_number(s.program_cpu_s * 1e6 /
                       static_cast<double>(std::max<uint64_t>(s.ops_ok, 1))) +
           ", \"meets_slo\": " + (s.meets_slo() ? "true" : "false") +
           ", \"gen_invalid\": " + (s.gen_invalid ? "true" : "false") + "}";
  }
  return out + "]";
}

/// The closed loop's rounds and tail figures, for the context line.
std::string closed_loop_json(const ClosedLoopResult& cl) {
  std::string out = "\"round_ops_s\": [";
  for (std::size_t i = 0; i < cl.round_ops_s[0].size(); ++i) {
    out += (i ? ", " : "") + json_number(cl.round_ops_s[0][i]);
  }
  return out + "], \"query_p999_ns\": " + json_number(percentile(cl.query_ns, 0.999)) +
         ", \"update_p999_ns\": " + json_number(percentile(cl.update_ns, 0.999));
}

std::string fail_line(uint64_t attempted, uint64_t failed, const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  return result_line(false, attempted, failed, MetricSet());
}

int run(const Args& a) {
  const double probe_start_ms = host_probe_ms();
  std::filesystem::create_directories(a.work_dir);
  // Threads the program starts (server, ingest) inherit this placement.
  pin_current_thread(placement().program);
  const std::string snapshot = a.work_dir + "/snapshot.dcsn";
  const std::string journal = a.work_dir + "/journal.dcjl";

  // --- set-up, repeated; the last rig is the one measured ---------------
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  uint64_t digest = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    rig.reset();
    const int64_t t0 = now_ns();
    rig = build_rig(a, snapshot, journal);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (rep > 0 && rig->in.digest != digest) {
      std::puts(fail_line(0, 0, "inputs differ between set-ups").c_str());
      return 1;
    }
    digest = rig->in.digest;
  }
  const Inputs& in = rig->in;
  const bool serve = is_serve(a.kind);

  // --- open-loop ladder ---------------------------------------------------
  const LadderPlan plan = plan_ladder(
      a, a.seconds * (serve ? kServeLadderShare : kEmbeddedLadderShare));
  FrameLogs logs;
  std::vector<StepResult> steps;
#if PERFBENCH_TRACED
  const double journal_bytes_before = serve ? file_bytes(journal) : 0;
  ingest::IngestStats ingest_before;
  if (serve) ingest_before = rig->svc->stats();
  uint64_t queue_depth_max = 0;
  std::function<void()> sampler = [&] {
    if (serve) queue_depth_max = std::max(queue_depth_max, rig->svc->stats().queue_depth);
  };
  const std::function<void()>* sampler_ptr = &sampler;
  rig->traced->reset();
  trace::fsync_enable(true);
#else
  const std::function<void()>* sampler_ptr = nullptr;
#endif
  for (std::size_t i = 0; i < plan.rates.size(); ++i) {
    steps.push_back(rig->transport->run_step(plan.rates[i], plan.seconds[i], logs,
                                             sampler_ptr));
  }
  rig->transport.reset();
  server::ServerStats ss;
  ingest::IngestStats is;
  if (serve) {
    rig->srv->stop();
    ss = rig->srv->stats();
    rig->svc->stop();
    is = rig->svc->stats();
  }
#if PERFBENCH_TRACED
  trace::fsync_enable(false);
  LayerInputs layers;
  layers.serve = serve;
  layers.ladder = rig->traced->report();
  layers.fsyncs = trace::fsync_take();
  if (serve) {
    layers.sojourn_ns = rig->svc->take_sojourn_ns();
    layers.ingest_before = ingest_before;
    layers.ingest_after = is;
    layers.server = ss;
    layers.journal_bytes = file_bytes(journal) - journal_bytes_before;
  }
  layers.queue_depth_max = queue_depth_max;
#endif

  uint64_t attempted = 0, failed = 0, shed = 0, bad_values = 0;
  bool connection_error = false;
  for (const StepResult& s : steps) {
    attempted += s.ops;
    failed += s.ops_failed;
    shed += s.ops_shed;
    bad_values += s.bad_values;
    connection_error |= s.connection_error;
  }

  // --- correctness of the ladder phase ------------------------------------
  std::vector<uint8_t> presence = in.prefill;
  if (connection_error) {
    std::puts(fail_line(attempted, failed, "connection error or lost answers").c_str());
    return 1;
  }
  if (bad_values != 0) {
    std::puts(fail_line(attempted, failed,
                        std::to_string(bad_values) + " query answers out of range")
                  .c_str());
    return 1;
  }
  if (serve && (ss.bad_frames != 0 || is.journal_errors != 0 || is.failed != 0)) {
    std::puts(fail_line(attempted, failed, "bad frames, journal errors or failed ops")
                  .c_str());
    return 1;
  }
  const uint64_t frame_mismatches = replay_frames(in, logs, presence);
  if (frame_mismatches != 0) {
    std::puts(fail_line(attempted, failed,
                        std::to_string(frame_mismatches) +
                            " update answers disagree with the stripe replay")
                  .c_str());
    return 1;
  }
  double recover_ms = 0;
  std::string why;
  if (serve && !recovery_matches(snapshot, journal, in, presence, recover_ms, why)) {
    std::puts(fail_line(attempted, failed, "recovery: " + why).c_str());
    return 1;
  }

  // --- closed loop ----------------------------------------------------------
  std::vector<DynamicConnectivity*> targets{rig->dc.get()};
#if PERFBENCH_TRACED
  rig->traced->reset();
  targets.push_back(rig->traced.get());
#endif
  const ClosedLoopResult cl = run_closed_loop(
      targets, in, presence,
      a.seconds * (1 - (serve ? kServeLadderShare : kEmbeddedLadderShare)));
  attempted += cl.ops;
  if (cl.update_mismatches != 0) {
    std::puts(fail_line(attempted, failed,
                        std::to_string(cl.update_mismatches) +
                            " closed-loop update answers disagree with the replay")
                  .c_str());
    return 1;
  }
  if (!matches_dsu(*rig->dc, in, presence, why)) {
    std::puts(fail_line(attempted, failed, "final state: " + why).c_str());
    return 1;
  }
  const double probe_end_ms = host_probe_ms();

  // --- report ---------------------------------------------------------------
  std::string context = "\"workload\": \"" + std::string(workload_name(a.kind)) +
                        "\", \"seed\": " + std::to_string(a.seed) +
                        ", \"input_digest\": \"" + std::to_string(digest) +
                        "\", \"host_probe_ms\": [" + json_number(probe_start_ms) + ", " +
                        json_number(probe_end_ms) + "], " + ladder_json(steps) + ", " +
                        closed_loop_json(cl);

  MetricSet m;
#if !PERFBENCH_TRACED
  const StepResult& light = step_at(steps, a.light);
  const StepResult& heavy = step_at(steps, a.heavy);
  double max_rate = 0;
  for (const StepResult& s : steps) {
    if (s.meets_slo() && !s.gen_invalid) max_rate = std::max(max_rate, s.rate);
  }
  // Serve workloads pay CPU per acknowledged op at `heavy`; embedded, which
  // has no server, per op of its closed loop.
  const double cpu_us_per_op =
      serve ? heavy.program_cpu_s * 1e6 /
                  static_cast<double>(std::max<uint64_t>(heavy.ops_ok, 1))
            : cl.cpu_s[0] * 1e6 / static_cast<double>(cl.target_ops[0]);
  // Gated: steady across seeds and host states (README.md, "End-to-end
  // metrics").
  m.add("setup_s", median(setup_s), "s");
  m.add("throughput_ops_s", median(cl.round_ops_s[0]), "1/s");
  m.add("query_p50_ns", median(cl.query_ns), "ns");
  m.add("rss_mb", peak_rss_mb(), "MB");
  // Reported on the context line, not gated: on a shared VM they follow the
  // disk's fsync latency and scheduling noise more than the program
  // (README.md lists their spread).
  const double failed_share = static_cast<double>(failed + shed) /
                              static_cast<double>(std::max<uint64_t>(attempted, 1));
  MetricSet ungated;
  ungated.add("query_p99_ns", percentile(cl.query_ns, 0.99), "ns");
  ungated.add("update_p50_ns", median(cl.update_ns), "ns");
  ungated.add("update_p99_ns", percentile(cl.update_ns, 0.99), "ns");
  ungated.add("light_p50_us", light.p50_us, "us");
  ungated.add("light_p99_us", light.p99_us, "us");
  ungated.add("heavy_p50_us", heavy.p50_us, "us");
  ungated.add("heavy_p99_us", heavy.p99_us, "us");
  ungated.add("max_rate_ops_s", max_rate, "1/s");
  ungated.add("cpu_us_per_op", cpu_us_per_op, "us");
  ungated.add("failed_share", failed_share, "share");
  context += ", \"ungated\": " + ungated.json();
#else
  layers.closed = rig->traced->report();
  layers.recover_ms = recover_ms;
  layers.resident_mb =
      static_cast<double>(condyn::pool_stats::resident_bytes()) / (1024.0 * 1024.0);
  layers.overhead_share = 1 - median(cl.round_ops_s[1]) / median(cl.round_ops_s[0]);
  layers.probe_ms = (probe_start_ms + probe_end_ms) / 2;
  if (!a.trace_out.empty()) {
    std::vector<FrameSpan> frames;
    for (const StepResult& s : steps) frames.insert(frames.end(), s.spans.begin(), s.spans.end());
    if (!trace::write_chrome(a.trace_out, frames, layers.ladder, layers.fsyncs, kTraceCap)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", a.trace_out.c_str());
    }
  }
  layers.steps = std::move(steps);
  add_layer_metrics(m, layers);
#endif
  // Context for the reader, one JSON line before the result line.
  std::puts(("{" + context + "}").c_str());
  std::puts(result_line(true, attempted, failed, m).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
    return 1;
  }
}
