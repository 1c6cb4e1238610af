#pragma once

// Traced-run plumbing: fsync spans from the --wrap=fsync interposer, and the
// Chrome trace-event dump of every span held in memory.

#include <cstdint>
#include <string>
#include <vector>

#include "ladder.hpp"
#include "traced_dc.hpp"

namespace perfbench::trace {

struct FsyncSpan {
  int64_t start_ns = 0;
  uint32_t dur_ns = 0;
};

/// Start or stop recording fsync calls (off by default, so set-up snapshots
/// are not counted).
void fsync_enable(bool on);
/// Move out the fsync spans recorded so far.
std::vector<FsyncSpan> fsync_take();

/// Write Chrome trace-event JSON (chrome://tracing, Perfetto): client frame
/// spans sharing their frame id, apply_batch spans by role, fsync spans.
/// At most `cap` spans of each kind are written. Returns false on I/O error.
bool write_chrome(const std::string& path, const std::vector<FrameSpan>& frames,
                  const TracedDc::Report& api,
                  const std::vector<FsyncSpan>& fsyncs, std::size_t cap);

}  // namespace perfbench::trace
