// condyn_server: the connectivity-as-a-service binary (DESIGN.md §12).
// Builds one variant, attaches the group-commit IngestService, and serves
// the wire:: protocol until SIGTERM/SIGINT, then drains gracefully: the
// listener closes, in-flight frames are answered through the ingest stop
// path, and the process exits 0 with a final status line.
//
// Configuration is environment-only (matching the bench harness):
//   DC_SERVER_VARIANT   variant name (default "full")
//   DC_SERVER_VERTICES  graph size n (default 1<<20)
//   DC_SERVER_BIND/PORT/THREADS/INFLIGHT/BYTES/DRAIN_MS   (see server.hpp)
//   DC_INGEST_*, DC_JOURNAL*   ingest/durability knobs (see ingest.hpp)

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/factory.hpp"
#include "ingest/ingest.hpp"
#include "server/server.hpp"

namespace {

// Self-pipe: the handler only writes a byte; main() blocks on the read end.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char b = 1;
  (void)!write(g_signal_pipe[1], &b, 1);
}

}  // namespace

int main() {
  using namespace condyn;

  const char* variant_env = std::getenv("DC_SERVER_VARIANT");
  const std::string variant =
      variant_env != nullptr && *variant_env ? variant_env : "full";
  const char* n_env = std::getenv("DC_SERVER_VERTICES");
  const Vertex n = n_env != nullptr && *n_env
                       ? static_cast<Vertex>(std::strtoull(n_env, nullptr, 10))
                       : (1u << 20);

  if (pipe(g_signal_pipe) < 0) {
    std::perror("condyn_server: pipe");
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // a client vanishing mid-write is not fatal

  try {
    auto dc = make_variant(variant, n);
    ingest::IngestService svc(*dc, ingest::env_options());
    server::Server srv(*dc, svc, server::env_server_options());
    srv.start();

    // Readiness line — the smoke harness waits for it before launching load.
    std::printf("condyn_server listening port=%u variant=%s n=%u threads=%u\n",
                srv.port(), variant.c_str(), n,
                server::env_server_options().threads);
    std::fflush(stdout);

    // Park until a signal arrives.
    pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
    while (poll(&pfd, 1, -1) < 0 && errno == EINTR) {
    }

    std::printf("condyn_server draining\n");
    std::fflush(stdout);
    srv.stop();  // before svc.stop(): the drain waits on applier tickets
    svc.stop();

    const server::ServerStats st = srv.stats();
    const wire::StatusReport rep = srv.status_report();
    std::printf(
        "condyn_server exit frames=%" PRIu64 " ops=%" PRIu64
        " inline_reads=%" PRIu64 " shed=%" PRIu64 " bad=%" PRIu64
        " rejected=%" PRIu64 " acked=%" PRIu64 " failed=%" PRIu64
        " journal_errors=%" PRIu64 "\n",
        st.frames, st.ops, st.inline_reads, st.shed_frames, st.bad_frames,
        st.rejected, rep.acked, rep.failed, rep.journal_errors);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "condyn_server: fatal: %s\n", e.what());
    return 1;
  }
}
