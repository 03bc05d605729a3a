// The benchmark's workloads and what one measured run of them yields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Kind { kV3, kReusable, kStream };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t bits;
  std::size_t rounds;  // MAC rounds per session
};

// Names are part of BENCHMARK.json; see README.md for why each exists.
inline constexpr Workload kWorkloads[] = {
    {"v3_b16", Kind::kV3, 16, 32},
    {"reusable_b16", Kind::kReusable, 16, 32},
    {"stream_b32_fresh", Kind::kStream, 32, 16},
};

inline constexpr std::size_t kClients = 2;        // closed-loop client threads
inline constexpr std::size_t kShards = 2;         // EvBroker event loops
inline constexpr std::size_t kPrecomputeCores = 1;
inline constexpr std::size_t kReplayCores = 2;    // GcCorePool of the core replay

struct RunConfig {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

// Everything the measurement phase of one run observed. Per-session
// values cover the sessions of the measured window only; gate
// violations cover set-up too.
struct Measured {
  Tally tally;
  std::vector<std::string> violations;  // correctness / invariant gate
  std::vector<double> setup_s;          // one per set-up repetition

  double window_s = 0;
  double cpu_s = 0;  // process user + sys over the window
  double peak_heap_mb = 0;  // heap bytes in use, peak over the window
  std::uint64_t sessions = 0;  // verified sessions in the window
  std::uint64_t macs = 0;      // verified MAC rounds in the window
  double wire_bytes = 0;       // client bytes sent + received
  std::vector<double> latency_ms;         // untraced verified sessions
  std::vector<double> traced_latency_ms;  // traced verified sessions

  // Client phases, one entry per verified session (ms). The body is
  // everything after the handshake (OT + transfer + evaluation); the v3
  // and reusable clients fold OT and transfer into evaluation.
  std::vector<double> handshake_ms, body_ms, eval_ms, first_table_ms;
  // Traced sessions: time blocked in recv and client send bursts.
  std::vector<double> recv_wait_ms, records;

  // Broker counters over the window, per served session.
  double server_handshake_ms = 0, server_first_table_ms = 0;
  double fresh_pools_per_session = 0, ots_extended_per_session = 0;
  double spool_empty_waits_per_session = 0;
  std::uint64_t connection_errors = 0;  // over every broker of the run
};

Measured run_serving(const RunConfig& cfg, TraceSink& sink);

}  // namespace perfbench
