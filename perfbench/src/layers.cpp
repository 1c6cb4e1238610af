#include "layers.hpp"

namespace perfbench {

namespace {

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

std::vector<uint32_t> durations_ns(const std::vector<BatchSpan>& spans) {
  std::vector<uint32_t> out;
  out.reserve(spans.size());
  for (const BatchSpan& s : spans) out.push_back(s.dur_ns);
  return out;
}

}  // namespace

void add_layer_metrics(MetricSet& m, const LayerInputs& in) {
  // core and util: read over the phase that exercises them on this
  // workload, the ladder for the serve workloads and the decorated
  // closed-loop rounds for embedded.
  const CallTotals& t = in.serve ? in.ladder.totals : in.closed.totals;
  const auto& o = t.ops;
  const double ops = static_cast<double>(t.ops_count);
  const double updates = static_cast<double>(o.additions + o.removals);
  m.add("core.label_hit_share",
        ratio(static_cast<double>(o.label_hits),
              static_cast<double>(o.label_hits + o.label_misses)),
        "share");
  m.add("core.label_publishes_per_kop", ratio(1e3 * static_cast<double>(o.label_publishes), ops),
        "1/kop");
  m.add("core.read_retry_share",
        ratio(static_cast<double>(o.read_retries), static_cast<double>(o.reads)), "share");
  m.add("core.nonspanning_update_share",
        ratio(static_cast<double>(o.nonspanning_additions + o.nonspanning_removals), updates),
        "share");
  m.add("core.nonblocking_update_share",
        ratio(static_cast<double>(o.nonblocking_updates), updates), "share");
  m.add("core.replacement_searches_per_kop",
        ratio(1e3 * static_cast<double>(o.replacement_searches), ops), "1/kop");
  m.add("core.sampling_hit_share",
        ratio(static_cast<double>(o.sampling_hits), static_cast<double>(o.replacement_searches)),
        "share");
  m.add("locks.wait_share",
        ratio(static_cast<double>(t.locks.wait_ns), static_cast<double>(t.busy_ns)), "share");
  m.add("locks.contended_share",
        ratio(static_cast<double>(t.locks.contended), static_cast<double>(t.locks.acquisitions)),
        "share");
  m.add("mem.allocs_per_kop", ratio(1e3 * static_cast<double>(t.mem.allocator_calls), ops),
        "1/kop");
  m.add("mem.pool_hit_share",
        ratio(static_cast<double>(t.mem.pool_reused),
              static_cast<double>(t.mem.pool_reused + t.mem.pool_fresh)),
        "share");
  m.add("mem.resident_mb", in.resident_mb, "MB");

  // api: apply_batch spans by calling thread.
  uint64_t applier_ops = 0;
  for (const BatchSpan& s : in.ladder.applier_batches) applier_ops += s.ops;
  const std::vector<uint32_t> inline_ns = durations_ns(in.ladder.inline_batches);
  const std::vector<uint32_t> applier_ns = durations_ns(in.ladder.applier_batches);
  m.add("api.inline_batch_us_p50", median(inline_ns) / 1e3, "us");
  m.add("api.inline_batch_us_p99", percentile(inline_ns, 0.99) / 1e3, "us");
  m.add("api.applier_batch_us_p50", median(applier_ns) / 1e3, "us");
  m.add("api.applier_batch_us_p99", percentile(applier_ns, 0.99) / 1e3, "us");
  m.add("api.ops_per_applier_call",
        ratio(static_cast<double>(applier_ops), static_cast<double>(applier_ns.size())), "ops");

  // ingest and journal, over the ladder.
  const auto& ib = in.ingest_before;
  const auto& ia = in.ingest_after;
  const double commits = static_cast<double>(ia.batches - ib.batches);
  double ladder_wall_s = 0, gen_cpu_s = 0, proc_cpu_s = 0;
  std::vector<int64_t> late_ns;
  for (const StepResult& s : in.steps) {
    ladder_wall_s += s.wall_s;
    gen_cpu_s += s.gen_cpu_s;
    proc_cpu_s += s.proc_cpu_s;
    late_ns.insert(late_ns.end(), s.late_ns.begin(), s.late_ns.end());
  }
  double applier_busy_ns = 0, fsync_ns_total = 0;
  for (uint32_t d : applier_ns) applier_busy_ns += d;
  std::vector<uint32_t> fsync_ns;
  for (const trace::FsyncSpan& f : in.fsyncs) {
    fsync_ns.push_back(f.dur_ns);
    fsync_ns_total += f.dur_ns;
  }
  m.add("ingest.ops_per_commit", ratio(static_cast<double>(ia.acked - ib.acked), commits), "ops");
  m.add("ingest.max_batch_fill", static_cast<double>(ia.max_batch_fill), "ops");
  m.add("ingest.queue_depth_max", static_cast<double>(in.queue_depth_max), "ops");
  m.add("ingest.sojourn_us_p50", median(in.sojourn_ns) / 1e3, "us");
  m.add("ingest.sojourn_us_p99", percentile(in.sojourn_ns, 0.99) / 1e3, "us");
  m.add("ingest.applier_busy_share",
        ratio((applier_busy_ns + fsync_ns_total) / 1e9, ladder_wall_s), "share");
  m.add("ingest.dropped", static_cast<double>(ia.dropped - ib.dropped), "count");
  m.add("ingest.failed", static_cast<double>(ia.failed - ib.failed), "count");
  m.add("journal.fsyncs_per_commit", ratio(static_cast<double>(ia.fsyncs - ib.fsyncs), commits),
        "count");
  m.add("journal.bytes_per_update",
        ratio(in.journal_bytes, static_cast<double>(ia.journal_records - ib.journal_records)),
        "B");
  m.add("journal.fsync_us_p50", median(fsync_ns) / 1e3, "us");
  m.add("journal.fsync_us_p99", percentile(fsync_ns, 0.99) / 1e3, "us");
  m.add("journal.recover_ms", in.recover_ms, "ms");

  // server and wire: ServerStats plus the client's frame spans.
  std::vector<uint32_t> read_rtt, update_rtt;
  double encode_ns = 0, decode_ns = 0, sent = 0, answered = 0;
  for (const StepResult& s : in.steps) {
    for (const FrameSpan& f : s.spans) {
      if (f.send_ns != 0) {
        encode_ns += f.encode_ns;
        sent += 1;
      }
      if (f.recv_ns == 0) continue;
      decode_ns += f.decode_ns;
      answered += 1;
      if (!f.ok) continue;
      (f.pure_read ? read_rtt : update_rtt)
          .push_back(static_cast<uint32_t>(f.recv_ns - f.send_ns));
    }
  }
  const auto& ss = in.server;
  const double update_p50_us = median(update_rtt) / 1e3;
  m.add("server.inline_share",
        ratio(static_cast<double>(ss.inline_reads), static_cast<double>(ss.frames)), "share");
  m.add("server.shed_frames", static_cast<double>(ss.shed_frames), "count");
  m.add("server.read_frame_us_p50", median(read_rtt) / 1e3, "us");
  m.add("server.update_frame_us_p50", update_p50_us, "us");
  m.add("server.update_frame_us_p99", percentile(update_rtt, 0.99) / 1e3, "us");
  m.add("server.notice_us_p50",
        update_rtt.empty() ? 0 : update_p50_us - median(in.sojourn_ns) / 1e3, "us");
  m.add("wire.encode_ns_per_op", ratio(encode_ns, sent * kFrameOps), "ns");
  m.add("wire.decode_ns_per_op", ratio(decode_ns, answered * kFrameOps), "ns");
  m.add("wire.bytes_in_per_op",
        ratio(static_cast<double>(ss.bytes_in), static_cast<double>(ss.ops)), "B");
  m.add("wire.bytes_out_per_op",
        ratio(static_cast<double>(ss.bytes_out), static_cast<double>(ss.ops)), "B");

  // Run validity.
  m.add("gen.late_us_p99", percentile(late_ns, 0.99) / 1e3, "us");
  m.add("gen.cpu_share", ratio(gen_cpu_s, proc_cpu_s), "share");
  m.add("host.probe_ms", in.probe_ms, "ms");
  m.add("trace.overhead_share", in.overhead_share, "share");
}

}  // namespace perfbench
