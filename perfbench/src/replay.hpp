// Layer replay: direct, timed calls into each module's public functions
// at a workload's bit width and round count. The traced run multiplies
// these costs by per-session counts to build the ledger.
#pragma once

#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Replay {
  // crypto
  double aes_ns_x1 = 0, aes_ns_x4 = 0, aes_ns_x16 = 0;  // per block
  double gc_hash_ns = 0;       // per block
  double aes_dispatch_ns = 0;  // one crypto::aes_active_backend() call
  // circuit
  double ands_per_mac = 0;
  double build_mac_us = 0;  // make_mac_circuit + analyze_v3 (per client session)
  // gc
  double garble_round_us = 0, eval_round_us = 0, garble_ns_per_and = 0;
  double reusable_eval_round_us = 0;  // masked plaintext round of the artifact
  // core (a small product on a 2-core pool)
  double core_macs_per_s_per_core = 0, core_utilization = 0,
         core_cycles_per_mac = 0;
  // ot
  double base_setup_ms = 0, pool_extend_ms = 0;
  // proto
  double v3_serialize_us = 0, v3_parse_us = 0, chunk_roundtrip_us = 0,
         table_bytes_per_mac = 0;
  // svc
  double spool_put_ms = 0, spool_take_ms = 0;
  // evloop: one whole session through an EvSession with no sockets
  double inmem_session_ms = 0;
  bool inmem_verified = false;
};

Replay run_replay(const Workload& wl, std::uint64_t seed,
                  const std::string& work_dir, SpanLog& log);

}  // namespace perfbench
