// decode_fuzz — robustness fuzzing for the three binary decoders: DCTR
// traces (io::load_trace), DCSN snapshots (io::load_snapshot) and DCJL
// journals (io::load_journal). Two build modes:
//
//   default           a self-contained seeded mutation loop: build small
//                     valid corpora in memory, mutate them (truncate, flip,
//                     insert, delete, garbage prefix, pure noise) and feed
//                     every decoder. `decode_fuzz [seconds] [seed]` runs a
//                     wall-clock budget (default 60s); CI points sanitizer
//                     builds at it so UB surfaces as a job failure.
//   CONDYN_LIBFUZZER  exports LLVMFuzzerTestOneInput instead of main;
//                     configure with -DCONDYN_LIBFUZZER=ON (clang only) and
//                     run `decode_fuzz -max_total_time=60 corpus/`.
//
// The contract under test (DESIGN.md §6.5, §11.3): arbitrary bytes must
// produce either a successful decode or a std::exception — never UB, a
// crash, or an unbounded allocation. Successful decodes additionally
// round-trip: re-encoding the decoded value and decoding again must
// reproduce it bit-for-bit (a mismatch is reported as a logic bug and the
// offending input is written to fuzz_crash_<n>.bin for triage).
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#ifndef CONDYN_LIBFUZZER
#include <csignal>
#include <ctime>
#include <fcntl.h>
#include <unistd.h>
#endif

#include "graph/codec.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"
#include "graph/wire.hpp"

namespace {

using namespace condyn;

/// Universe the wire ops decoder is checked against: vertex-range rejection
/// needs a concrete num_vertices, and the server always supplies one.
constexpr Vertex kWireUniverse = 1u << 20;

/// Thrown by the round-trip checks; anything else escaping a decoder is
/// equally a finding, but this one carries a human-readable diagnosis.
struct RoundTripError : std::logic_error {
  using std::logic_error::logic_error;
};

std::atomic<uint64_t> g_trace_ok{0}, g_snapshot_ok{0}, g_journal_ok{0},
    g_wire_ok{0};

void check_trace(const std::string& buf) {
  io::Trace t;
  try {
    std::istringstream in(buf);
    t = io::load_trace(in);
  } catch (const std::exception&) {
    return;  // graceful rejection is the expected outcome
  }
  g_trace_ok.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream out;
  io::save_trace(t, out);
  std::istringstream back(out.str());
  if (io::load_trace(back) != t)
    throw RoundTripError("trace decode -> encode -> decode mismatch");
}

void check_snapshot(const std::string& buf) {
  io::Snapshot s;
  try {
    std::istringstream in(buf);
    s = io::load_snapshot(in);
  } catch (const std::exception&) {
    return;
  }
  g_snapshot_ok.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream out;
  io::save_snapshot(s, out);
  std::istringstream back(out.str());
  if (!(io::load_snapshot(back) == s))
    throw RoundTripError("snapshot decode -> encode -> decode mismatch");
}

void check_journal(const std::string& buf) {
  io::JournalData j;
  try {
    std::istringstream in(buf);
    j = io::load_journal(in);
  } catch (const std::exception&) {
    return;
  }
  g_journal_ok.fetch_add(1, std::memory_order_relaxed);
  // The reader is tolerant past the header, so a decode that kept N records
  // must keep exactly those N when they are re-encoded without the torn
  // tail.
  std::ostringstream out;
  io::write_journal_header(out, j.num_vertices);
  for (const io::JournalRecord& r : j.records)
    io::write_journal_record(out, r.seq, r.op);
  std::istringstream back(out.str());
  const io::JournalData again = io::load_journal(back);
  if (again.num_vertices != j.num_vertices || again.records != j.records ||
      again.truncated_tail)
    throw RoundTripError("journal decode -> encode -> decode mismatch");
}

void check_wire(const std::string& buf) {
  std::size_t frames = 0;
  try {
    frames = wire::decode_any(
        std::span(reinterpret_cast<const uint8_t*>(buf.data()), buf.size()),
        kWireUniverse);
  } catch (const std::runtime_error&) {
    return;  // strict rejection is the expected outcome
  }
  // decode_any's internal round-trip checks throw std::logic_error, which
  // deliberately escapes past the catch above and is reported as a finding.
  g_wire_ok.fetch_add(frames, std::memory_order_relaxed);
}

void one_input(const uint8_t* data, std::size_t size) {
  const std::string buf(reinterpret_cast<const char*>(data), size);
  check_trace(buf);
  check_snapshot(buf);
  check_journal(buf);
  check_wire(buf);
}

}  // namespace

#ifdef CONDYN_LIBFUZZER

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, std::size_t size) {
  one_input(data, size);  // round-trip failures throw -> libFuzzer crash
  return 0;
}

#else  // seeded mutation loop fallback ---------------------------------------

namespace {

/// The input being fuzzed right now, exposed so the signal handler can dump
/// it if a decoder takes the process down (SIGSEGV and friends can't be
/// caught as exceptions; without this the reproducer would be lost).
std::string g_current;

void crash_handler(int sig) {
  const int fd = ::open("fuzz_crash_signal.bin", O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd >= 0) {
    // write(2) is async-signal-safe; the return value is deliberately
    // ignored — there is nothing more to do on a failed write here.
    ssize_t ignored = ::write(fd, g_current.data(), g_current.size());
    (void)ignored;
    ::close(fd);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

std::string encode_trace() {
  io::Trace t;
  t.num_vertices = 32;
  for (Vertex v = 1; v < 16; ++v) t.ops.push_back(Op::add(0, v));
  t.ops.push_back(Op::remove(0, 3));
  t.ops.push_back(Op::connected(1, 2));
  t.ops.push_back(Op::component_size(4));
  t.ops.push_back(Op::representative(5));
  std::ostringstream out;
  io::save_trace(t, out);
  return out.str();
}

/// The writer produces v3 only, so the v1 and v2 readers are seeded from
/// the checked-in golden traces.
std::string golden_trace(const char* name) {
  std::ifstream f(std::string(CONDYN_SOURCE_DIR) + "/tests/data/" + name,
                  std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

std::string encode_snapshot() {
  std::vector<Edge> live;
  for (Vertex v = 1; v < 12; ++v) live.push_back(Edge{0, v});
  std::ostringstream out;
  io::save_snapshot(io::make_snapshot(57, 32, std::move(live)), out);
  return out.str();
}

/// A multi-frame wire buffer: one ops frame covering every kind, a results
/// frame, a status probe and its response — decode_any walks them all.
std::string encode_wire() {
  std::vector<uint8_t> out;
  std::vector<Op> ops;
  for (Vertex v = 1; v < 12; ++v) ops.push_back(Op::add(0, v));
  ops.push_back(Op::remove(0, 5));
  ops.push_back(Op::connected(1, 2));
  ops.push_back(Op::component_size(3));
  ops.push_back(Op::representative(4));
  wire::encode_ops_frame(ops, out);
  const std::vector<uint64_t> values = {1, 0, 17, 3, 0};
  wire::encode_results_frame(wire::Status::kOk, values, out);
  wire::encode_status_request(out);
  wire::StatusReport st;
  st.num_vertices = kWireUniverse;
  st.queue_depth = 3;
  st.submitted = 1000;
  st.acked = 997;
  st.batches = 12;
  wire::encode_status_response(st, out);
  return std::string(reinterpret_cast<const char*>(out.data()), out.size());
}

std::string encode_journal() {
  std::ostringstream out;
  io::write_journal_header(out, 32);
  uint64_t seq = 0;
  for (Vertex v = 1; v < 12; ++v)
    io::write_journal_record(out, ++seq, Op::add(0, v));
  io::write_journal_record(out, ++seq, Op::remove(0, 5));
  return out.str();
}

/// Rewrite the op count of a DCTR header, or of the trace a DCSN embeds,
/// to what the payload after it holds, trimming a partial last op. Edits to
/// the payload then reach the op decoder and the round-trip check instead
/// of stopping at the strict count-versus-bytes check.
void fix_trace_count(std::string& s) {
  std::size_t at = 0;  // where the DCTR magic starts
  if (s.size() >= codec::kSnapshotHeaderBytes &&
      s.compare(0, 4, io::kSnapshotMagic, 4) == 0)
    at = codec::kSnapshotHeaderBytes;
  if (s.size() < at + 8 || s.compare(at, 4, io::kTraceMagic, 4) != 0) return;
  const bool v1 = codec::get_le<uint32_t>(s.data() + at + 4) ==
                  io::kTraceVersionV1;
  const std::size_t payload =
      at + (v1 ? codec::kTraceV1HeaderBytes : codec::kTraceHeaderBytes);
  if (s.size() < payload) return;
  uint64_t count = 0;
  if (v1) {
    count = (s.size() - payload) / codec::kTraceV1OpBytes;
    s.resize(payload + count * codec::kTraceV1OpBytes);
  } else {
    // Each op is two LEB128 varints, and a byte with a clear top bit ends
    // a varint.
    std::size_t ends = 0, last_op_end = payload;
    for (std::size_t i = payload; i < s.size(); ++i) {
      if ((static_cast<uint8_t>(s[i]) & 0x80) == 0 && ++ends % 2 == 0)
        last_op_end = i + 1;
    }
    count = ends / 2;
    s.resize(last_op_end);
  }
  codec::put_le(s.data() + payload - sizeof(uint64_t), count);
}

std::string mutate(const std::string& base, std::mt19937_64& rng) {
  std::string s = base;
  auto rnd = [&](std::size_t n) { return n ? rng() % n : 0; };
  const int passes = 1 + static_cast<int>(rnd(4));
  for (int i = 0; i < passes; ++i) {
    switch (rnd(7)) {
      case 0:  // truncate — torn tails are the headline journal case
        s.resize(rnd(s.size() + 1));
        break;
      case 1:  // flip bits of one byte
        if (!s.empty()) s[rnd(s.size())] ^= static_cast<char>(1 + rnd(255));
        break;
      case 2: {  // insert a few random bytes
        std::string ins(1 + rnd(8), '\0');
        for (char& c : ins) c = static_cast<char>(rng());
        s.insert(rnd(s.size() + 1), ins);
        break;
      }
      case 3: {  // delete a small range
        if (s.empty()) break;
        const std::size_t at = rnd(s.size());
        s.erase(at, 1 + rnd(std::min<std::size_t>(8, s.size() - at)));
        break;
      }
      case 4:  // garbage prefix — exercises the magic/version checks
        s.insert(0, 1, static_cast<char>(rng()));
        break;
      case 5:  // a trace or snapshot whose header count fits its payload;
               // the last edit, so no later one breaks the count again
        fix_trace_count(s);
        return s;
      default: {  // replace wholesale with noise
        s.assign(4 + rnd(96), '\0');
        for (char& c : s) c = static_cast<char>(rng());
        break;
      }
    }
  }
  return s;
}

int fuzz_main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 60.0;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  std::mt19937_64 rng(seed);

  for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
    ::signal(sig, crash_handler);

  std::vector<std::string> corpus = {
      golden_trace("golden_v1.dctr"),
      golden_trace("golden_v2.dctr"),
      encode_trace(),
      encode_snapshot(),
      encode_journal(),
      encode_wire(),
  };
  // The unmutated corpus must decode: a harness that only ever feeds its
  // decoders garbage fuzzes the error paths and nothing else.
  for (const std::string& c : corpus)
    one_input(reinterpret_cast<const uint8_t*>(c.data()), c.size());
  if (g_trace_ok.load() < 3 || g_snapshot_ok.load() < 1 ||
      g_journal_ok.load() < 1 || g_wire_ok.load() < 4) {
    std::fprintf(stderr, "decode_fuzz: seed corpus failed to decode\n");
    return 1;
  }

  const std::clock_t budget =
      static_cast<std::clock_t>(seconds * CLOCKS_PER_SEC);
  const std::clock_t start = std::clock();
  uint64_t iterations = 0;
  int crashes = 0;
  while (std::clock() - start < budget) {
    g_current = mutate(corpus[rng() % corpus.size()], rng);
    const uint64_t ok_before = g_trace_ok.load() + g_snapshot_ok.load() +
                               g_journal_ok.load() + g_wire_ok.load();
    try {
      one_input(reinterpret_cast<const uint8_t*>(g_current.data()),
                g_current.size());
      // Mutants that still decode are the interesting frontier: append them
      // (bounded) so the walk compounds edits instead of always restarting
      // one edit away from a pristine seed. Never overwrite the seeds —
      // replacing them with rejected garbage degenerates the corpus until
      // only the error paths are exercised.
      const uint64_t ok_after = g_trace_ok.load() + g_snapshot_ok.load() +
                                g_journal_ok.load() + g_wire_ok.load();
      if (ok_after > ok_before && corpus.size() < 64 &&
          g_current.size() < (1u << 16))
        corpus.push_back(g_current);
    } catch (const std::exception& e) {
      char name[64];
      std::snprintf(name, sizeof name, "fuzz_crash_%d.bin", crashes++);
      if (std::FILE* f = std::fopen(name, "wb")) {
        std::fwrite(g_current.data(), 1, g_current.size(), f);
        std::fclose(f);
      }
      std::fprintf(stderr, "decode_fuzz: %s (input saved to %s)\n", e.what(),
                   name);
    }
    ++iterations;
  }

  std::printf(
      "decode_fuzz: %llu inputs in %.1fs (seed %llu): trace ok %llu, "
      "snapshot ok %llu, journal ok %llu, wire frames ok %llu, findings %d\n",
      static_cast<unsigned long long>(iterations),
      static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC,
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(g_trace_ok.load()),
      static_cast<unsigned long long>(g_snapshot_ok.load()),
      static_cast<unsigned long long>(g_journal_ok.load()),
      static_cast<unsigned long long>(g_wire_ok.load()), crashes);
  return crashes == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return fuzz_main(argc, argv); }

#endif  // CONDYN_LIBFUZZER
