#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

/// What every frame of connection c came back with, in send order: frame j
/// carried ops [8j, 8j+8) of Inputs::open[c] (modulo its length).
struct FrameLog {
  std::vector<uint8_t> status;  ///< condyn::wire::Status per frame
  std::vector<uint8_t> values;  ///< 8 per frame: op result != 0 (kOk only)
};
using FrameLogs = std::array<FrameLog, kClients>;

/// Client-side spans of one frame (traced runs only); they share `id`.
struct FrameSpan {
  uint64_t id = 0;
  int64_t sched_ns = 0, send_ns = 0, recv_ns = 0;
  uint32_t encode_ns = 0, decode_ns = 0;
  uint8_t conn = 0;
  bool pure_read = false;
  bool ok = false;
};

/// One rate step of the open-loop ladder.
struct StepResult {
  double rate = 0;    ///< offered ops/s
  double wall_s = 0;  ///< first scheduled send -> last response
  uint64_t frames = 0, ops = 0, ops_ok = 0, ops_shed = 0, ops_failed = 0;
  uint64_t bad_frames = 0;  ///< answered kBadFrame
  uint64_t bad_values = 0;  ///< kOk values outside their op's range
  /// Per frame, in schedule order: response time minus *scheduled* send
  /// time, or kRefused when the frame was shed, failed or never answered.
  std::vector<uint32_t> frame_latency_ns;
  /// The kOk entries of frame_latency_ns (filled by finish_step).
  std::vector<uint32_t> latency_ns;
  std::vector<int64_t> late_ns;  ///< per frame: actual - scheduled send
  double late_p99_us = 0;     ///< p99 of late_ns, in microseconds
  double gen_cpu_s = 0;       ///< CPU of the generator thread
  double proc_cpu_s = 0;      ///< CPU of the whole process during the step
  /// CPU the program spent on the step's ops: the process minus the
  /// generator for the loopback transport; the caller's thread CPU inside
  /// apply_batch for the in-process one, whose caller is both generator and
  /// executor.
  double program_cpu_s = 0;
  /// The generator found a connection's socket full (the server stopped
  /// reading), so lateness in this step is the server's doing.
  bool send_blocked = false;
  /// Robust step statistics (finish_step): the schedule is cut into windows
  /// of about kWindowFrames frames, and each figure is the median over the
  /// windows, so a host stall that hits one window does not decide it.
  double p50_us = 0;          ///< median of the windows' p50 (kOk frames)
  double p99_us = 0;          ///< median of the windows' p99 (kOk frames)
  double p99_all_us = 0;      ///< same, with every refused frame as a miss
  double refused_share = 0;   ///< median of the windows' shed+failed share
  unsigned windows = 0;
  bool backlog_growing = false;
  bool gen_invalid = false;   ///< the generator, not the program, fell behind
  bool connection_error = false;
  std::vector<FrameSpan> spans;  ///< traced runs only

  bool meets_slo() const;
};

/// Sends paced frames of the workload's open-loop programs and collects the
/// answers. Both transports keep per-connection program order.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Offer `rate` ops/s for `seconds`, then wait for every answer.
  /// `sampler`, when set, is called about once a millisecond meanwhile.
  virtual StepResult run_step(double rate, double seconds, FrameLogs& logs,
                              const std::function<void()>* sampler) = 0;
};

/// In-process: one pacing thread calls apply_batch itself when each frame
/// is due (no server, wire, ingest or journal).
class InProcessTransport final : public Transport {
 public:
  InProcessTransport(DynamicConnectivity& dc, const Inputs& in)
      : dc_(dc), in_(in) {}
  StepResult run_step(double rate, double seconds, FrameLogs& logs,
                      const std::function<void()>* sampler) override;

 private:
  DynamicConnectivity& dc_;
  const Inputs& in_;
};

/// Loopback TCP: kClients connections driven by one generator thread that
/// spins between sending due frames and draining answers, so neither a
/// send nor an answer waits for a sleeping thread to wake.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(uint16_t port, const Inputs& in);
  ~LoopbackTransport() override;
  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

  StepResult run_step(double rate, double seconds, FrameLogs& logs,
                      const std::function<void()>* sampler) override;

 private:
  void connect_all(uint16_t port);
  void close_all() noexcept;

  const Inputs& in_;
  std::array<int, kClients> fds_{};
  int epfd_ = -1;
  uint64_t next_frame_id_ = 0;
};

inline constexpr uint32_t kRefused = UINT32_MAX;
/// Frames per statistics window: a window's p99 has ten samples beyond it.
inline constexpr uint64_t kWindowFrames = 1000;

/// Fills the step's derived fields (percentiles, SLO inputs) from the raw
/// per-frame data; `late_ns` is the generator's lateness per frame.
void finish_step(StepResult& r, std::vector<int64_t> late_ns);

}  // namespace perfbench
