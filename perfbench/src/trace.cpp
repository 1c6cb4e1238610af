#include "trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>

namespace perfbench::trace {

namespace {

enum Tid : int { kInline = 1, kApplier = 2, kFsync = 3, kClientBase = 10 };

struct Writer {
  std::FILE* f;
  bool first = true;

  void event(const char* name, const char* cat, int tid, int64_t start_ns,
             int64_t dur_ns, const char* args) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                 first ? "" : ",", name, cat, tid,
                 static_cast<double>(start_ns) / 1e3,
                 static_cast<double>(dur_ns) / 1e3, args);
    first = false;
  }
  void thread_name(int tid, const char* name) {
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", tid, name);
    first = false;
  }
};

}  // namespace

bool write_chrome(const std::string& path, const std::vector<FrameSpan>& frames,
                  const TracedDc::Report& api,
                  const std::vector<FsyncSpan>& fsyncs, std::size_t cap) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                     &std::fclose);
  if (!f) return false;
  Writer w{f.get()};
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f.get());
  w.thread_name(kInline, "api inline apply_batch");
  w.thread_name(kApplier, "api applier apply_batch");
  w.thread_name(kFsync, "journal fsync");
  for (unsigned c = 0; c < kClients; ++c) {
    const std::string n = "client conn " + std::to_string(c);
    w.thread_name(kClientBase + static_cast<int>(c), n.c_str());
  }

  char args[128];
  for (std::size_t i = 0; i < frames.size() && i < cap; ++i) {
    const FrameSpan& s = frames[i];
    if (s.recv_ns == 0) continue;  // never answered
    std::snprintf(args, sizeof args,
                  "\"frame\":%" PRIu64 ",\"kind\":\"%s\",\"ok\":%s", s.id,
                  s.pure_read ? "read" : "update", s.ok ? "true" : "false");
    const int tid = kClientBase + s.conn;
    w.event("frame", "client", tid, s.sched_ns, s.recv_ns - s.sched_ns, args);
    const int64_t encode_start = s.send_ns - s.encode_ns;
    w.event("gen.late", "client", tid, s.sched_ns, encode_start - s.sched_ns, args);
    w.event("wire.encode", "wire", tid, encode_start, s.encode_ns, args);
    w.event("rtt", "client", tid, s.send_ns, s.recv_ns - s.send_ns, args);
    w.event("wire.decode", "wire", tid, s.recv_ns, s.decode_ns, args);
  }
  const auto batches = [&](const std::vector<BatchSpan>& v, int tid) {
    for (std::size_t i = 0; i < v.size() && i < cap; ++i) {
      std::snprintf(args, sizeof args, "\"ops\":%u", v[i].ops);
      w.event("apply_batch", "api", tid, v[i].start_ns, v[i].dur_ns, args);
    }
  };
  batches(api.inline_batches, kInline);
  batches(api.applier_batches, kApplier);
  for (std::size_t i = 0; i < fsyncs.size() && i < cap; ++i) {
    w.event("fsync", "journal", kFsync, fsyncs[i].start_ns, fsyncs[i].dur_ns, "");
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench::trace
