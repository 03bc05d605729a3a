// Benchmark driver: runs one workload for a fixed time, checks every
// result, and prints one JSON result line. With --trace 1 it also replays
// each layer, builds the per-session ledger and writes the spans.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--trace-dir DIR]
//   perfbench_driver --list-metrics     (workloads, metric names and units)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "ot/pool.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// End-to-end metrics, measured with tracing off.
std::vector<Metric> end_to_end(const Measured& m) {
  const std::vector<double>& lat = m.latency_ms;
  return {
      {"setup_s", median(m.setup_s), "s"},
      {"sessions_per_s", ratio(static_cast<double>(m.sessions), m.window_s), "1/s"},
      {"macs_per_s", ratio(static_cast<double>(m.macs), m.window_s), "1/s"},
      {"session_p50_ms", median(lat), "ms"},
      {"session_tail_ms", quantile(lat, tail_level(lat.size())), "ms"},
      {"wire_bytes_per_mac", ratio(m.wire_bytes, static_cast<double>(m.macs)), "B"},
      {"cpu_us_per_mac", ratio(1e6 * m.cpu_s, static_cast<double>(m.macs)), "us"},
      {"peak_heap_mb", m.peak_heap_mb, "MiB"},
  };
}

// One ledger line: a layer cost paid `count` times per session.
struct LedgerTerm {
  const char* what;
  double cost_ms;
  double count;
};

// Per-session costs of the layers on each workload's critical path,
// priced from the replay and counted from broker and client stats.
std::vector<LedgerTerm> ledger_terms(const Workload& wl, const Measured& m,
                                     const Replay& r, double extends,
                                     double chunks) {
  const double rounds = static_cast<double>(wl.rounds);
  std::vector<LedgerTerm> t = {
      {"circuit.build (client, per session)", 1e-3 * r.build_mac_us, 1},
      {"gc.eval_round (client)", 1e-3 * r.eval_round_us, rounds},
  };
  switch (wl.kind) {
    case Kind::kV3:
      t.push_back({"svc.spool_take_v3", r.spool_take_ms, 1});
      t.push_back({"ot.pool_base_setup", r.base_setup_ms, m.fresh_pools_per_session});
      t.push_back({"ot.pool_extend", r.pool_extend_ms, extends});
      break;
    case Kind::kReusable:
      // The reusable client evaluates masked plaintext, not garbled gates.
      t[1] = {"gc.reusable_eval_round (client)", 1e-3 * r.reusable_eval_round_us, rounds};
      t.push_back({"ot.pool_base_setup", r.base_setup_ms, m.fresh_pools_per_session});
      t.push_back({"ot.pool_extend", r.pool_extend_ms, extends});
      break;
    case Kind::kStream:
      t.push_back({"gc.garble_round (server, on demand)", 1e-3 * r.garble_round_us, rounds});
      t.push_back({"ot base OT of the IKNP setup", r.base_setup_ms, 1});
      t.push_back({"proto.chunk_roundtrip", 1e-3 * r.chunk_roundtrip_us, chunks});
      break;
  }
  return t;
}

std::vector<Metric> per_layer(const Workload& wl, const Measured& m,
                              const Replay& r, std::FILE* report) {
  const double extends =
      m.ots_extended_per_session / static_cast<double>(maxel::ot::kPoolExtendBatch);
  const double chunks = std::ceil(static_cast<double>(wl.rounds) / 16.0);

  // Ledger over the mean untraced session time.
  const double session_ms = mean(m.latency_ms);
  double explained = 0;
  const std::vector<LedgerTerm> terms = ledger_terms(wl, m, r, extends, chunks);
  if (report) std::fprintf(report, "ledger for %s (mean session %.4f ms)\n", wl.name, session_ms);
  for (const LedgerTerm& t : terms) {
    explained += t.cost_ms * t.count;
    if (report)
      std::fprintf(report, "  %-40s %10.4f ms x %8.4f = %10.4f ms\n", t.what,
                   t.cost_ms, t.count, t.cost_ms * t.count);
  }
  const double unexplained = session_ms > 0 ? 1.0 - explained / session_ms : 0;
  if (report) std::fprintf(report, "  unexplained share: %.4f\n", unexplained);

  std::vector<double> all_lat = m.latency_ms;
  all_lat.insert(all_lat.end(), m.traced_latency_ms.begin(), m.traced_latency_ms.end());
  double slow = 0;
  for (double x : all_lat) slow += x > 20.0 ? 1 : 0;

  return {
      {"crypto.aes_ns_per_block_x1", r.aes_ns_x1, "ns"},
      {"crypto.aes_ns_per_block_x4", r.aes_ns_x4, "ns"},
      {"crypto.aes_ns_per_block_x16", r.aes_ns_x16, "ns"},
      {"crypto.gc_hash_ns_per_block", r.gc_hash_ns, "ns"},
      {"crypto.aes_dispatch_ns", r.aes_dispatch_ns, "ns"},
      {"circuit.ands_per_mac", r.ands_per_mac, "count"},
      {"circuit.build_mac_us", r.build_mac_us, "us"},
      {"gc.garble_round_us", r.garble_round_us, "us"},
      {"gc.eval_round_us", r.eval_round_us, "us"},
      {"gc.garble_ns_per_and", r.garble_ns_per_and, "ns"},
      {"gc.reusable_eval_round_us", r.reusable_eval_round_us, "us"},
      {"core.macs_per_s_per_core", r.core_macs_per_s_per_core, "1/s"},
      {"core.utilization", r.core_utilization, "frac"},
      {"core.cycles_per_mac", r.core_cycles_per_mac, "cycles"},
      {"ot.base_setup_ms", r.base_setup_ms, "ms"},
      {"ot.pool_extend_ms", r.pool_extend_ms, "ms"},
      {"ot.ots_per_session", static_cast<double>(wl.rounds * wl.bits), "count"},
      {"ot.extends_per_session", extends, "count"},
      {"ot.fresh_pools_per_session", m.fresh_pools_per_session, "count"},
      {"proto.v3_serialize_us", r.v3_serialize_us, "us"},
      {"proto.v3_parse_us", r.v3_parse_us, "us"},
      {"proto.chunk_roundtrip_us", r.chunk_roundtrip_us, "us"},
      {"proto.table_bytes_per_mac", r.table_bytes_per_mac, "B"},
      {"svc.spool_put_ms", r.spool_put_ms, "ms"},
      {"svc.spool_take_ms", r.spool_take_ms, "ms"},
      {"svc.spool_empty_waits_per_session", m.spool_empty_waits_per_session, "count"},
      {"net.client_handshake_ms", mean(m.handshake_ms), "ms"},
      {"net.client_body_ms", mean(m.body_ms), "ms"},
      {"net.client_eval_ms", mean(m.eval_ms), "ms"},
      {"net.first_table_ms", median(m.first_table_ms), "ms"},
      {"net.server_handshake_ms", m.server_handshake_ms, "ms"},
      {"net.server_first_table_ms", m.server_first_table_ms, "ms"},
      {"net.recv_wait_ms", mean(m.recv_wait_ms), "ms"},
      {"net.records_per_session", mean(m.records), "count"},
      {"net.sessions_over_20ms_frac", ratio(slow, static_cast<double>(all_lat.size())), "frac"},
      {"evloop.inmem_session_ms", r.inmem_session_ms, "ms"},
      {"evloop.connection_errors", static_cast<double>(m.connection_errors), "count"},
      {"ledger.unexplained_frac", unexplained, "frac"},
      {"trace.overhead_frac",
       ratio(median(m.traced_latency_ms), median(m.latency_ms)) - 1.0, "frac"},
  };
}

void list_metrics() {
  std::printf("workloads:");
  for (const Workload& w : kWorkloads) std::printf(" %s", w.name);
  std::printf("\n");
  const Measured m;
  const Replay r;
  std::vector<Metric> names[2] = {end_to_end(m), per_layer(kWorkloads[0], m, r, nullptr)};
  for (int mode = 0; mode < 2; ++mode) {
    std::printf("%s", mode ? "per_layer:" : "end_to_end:");
    for (const Metric& x : names[mode]) std::printf(" %s=%s", x.name.c_str(), x.unit.c_str());
    std::printf("\n");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-dir DIR]\n"
               "       perfbench_driver --list-metrics\n");
  return 2;
}

int run(int argc, char** argv) {
  RunConfig cfg;
  std::string workload, trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") cfg.trace = v == "1";
    else if (a == "--work-dir") cfg.work_dir = v;
    else if (a == "--trace-dir") trace_dir = v;
    else return usage();
  }
  for (const Workload& w : kWorkloads)
    if (workload == w.name) cfg.wl = &w;
  if (cfg.wl == nullptr || cfg.work_dir.empty() || !(cfg.seconds > 0)) return usage();
  std::filesystem::create_directories(cfg.work_dir);

  TraceSink sink;
  const Measured m = run_serving(cfg, sink);
  std::vector<std::string> violations = m.violations;
  if (m.connection_errors != 0)
    violations.push_back("connection_errors = " + std::to_string(m.connection_errors));
  if (m.sessions == 0) violations.push_back("no session completed in the window");

  std::vector<Metric> metrics;
  if (cfg.trace) {
    const Replay r = run_replay(*cfg.wl, cfg.seed, cfg.work_dir, sink.new_log());
    // The paper's 3b cycles per MAC: 24/48/96 at b = 8/16/32.
    const double want_cycles = 3.0 * static_cast<double>(cfg.wl->bits);
    if (std::fabs(r.core_cycles_per_mac - want_cycles) > 1e-9)
      violations.push_back("core.cycles_per_mac = " + std::to_string(r.core_cycles_per_mac) +
                           ", want " + std::to_string(want_cycles));
    if (!r.inmem_verified) violations.push_back("in-memory EvSession replay failed");
    metrics = per_layer(*cfg.wl, m, r, stderr);
    if (!trace_dir.empty()) {
      std::filesystem::create_directories(trace_dir);
      // One file per workload, replaced by each traced run.
      const std::string path = trace_dir + "/" + cfg.wl->name + ".spans.jsonl";
      if (!sink.write(path)) violations.push_back("cannot write " + path);
      else std::fprintf(stderr, "wrote %llu spans to %s (%llu send/recv spans dropped)\n",
                        static_cast<unsigned long long>(sink.spans()), path.c_str(),
                        static_cast<unsigned long long>(sink.dropped()));
    }
  } else {
    metrics = end_to_end(m);
  }

  std::fprintf(stderr, "%s: %llu sessions in %.3f s (%zu untraced latency samples, "
               "tail level %.4f), %llu attempted, %llu failed (failed_frac %.4f)\n",
               cfg.wl->name, static_cast<unsigned long long>(m.sessions), m.window_s,
               m.latency_ms.size(), tail_level(m.latency_ms.size()),
               static_cast<unsigned long long>(m.tally.attempted),
               static_cast<unsigned long long>(m.tally.failed()), m.tally.failed_frac());
  if (!violations.empty()) {
    for (const std::string& v : violations) std::fprintf(stderr, "GATE: %s\n", v.c_str());
    return 1;
  }
  std::printf("%s\n", result_json(true, m.tally, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
