#include "svc/service.hpp"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/gc_core_pool.hpp"
#include "crypto/rng.hpp"
#include "net/cli.hpp"
#include "svc/broker.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {

using net::cli::FlagParser;
using net::cli::FlagResult;

const char* const kBrokerFlagsHelp =
    "  --spool DIR (required) --low L --high H --cache C --metrics PATH\n";

FlagResult parse_broker_flag(FlagParser& p, const std::string& flag,
                             SpoolServeOptions& cfg, std::string& json_path,
                             std::string& metrics_path) {
  const FlagResult r = net::cli::parse_serve_flag(p, flag, cfg, json_path);
  if (r != FlagResult::kUnknown) return r;
  if (flag == "--spool") p.value_into(cfg.spool_dir);
  else if (flag == "--low") cfg.spool_low_watermark = p.value_u64();
  else if (flag == "--high") cfg.spool_high_watermark = p.value_u64();
  else if (flag == "--cache") cfg.ram_cache_sessions = p.value_u64();
  else if (flag == "--metrics") p.value_into(metrics_path);
  else return FlagResult::kUnknown;
  return FlagResult::kTaken;
}

namespace {

// Whitespace-free JSON -> indented form; tracks string/escape state so
// braces inside messages don't confuse it. No external JSON dependency.
std::string pretty_json(const std::string& in) {
  std::string out;
  int depth = 0;
  bool in_string = false, escaped = false;
  const auto newline = [&] {
    out.push_back('\n');
    for (int d = 0; d < depth; ++d) out += "  ";
  };
  for (const char c : in) {
    if (in_string) {
      out.push_back(c);
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; out.push_back(c); break;
      case '{': case '[': out.push_back(c); ++depth; newline(); break;
      case '}': case ']': --depth; newline(); out.push_back(c); break;
      case ',': out.push_back(c); newline(); break;
      case ':': out += ": "; break;
      default:
        if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int broker_command(int argc, char** argv) {
  BrokerConfig cfg;
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path, metrics_path;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    const FlagResult r =
        parse_broker_flag(p, flag, cfg, json_path, metrics_path);
    if (r == FlagResult::kBad) return 2;
    if (r == FlagResult::kTaken) continue;
    if (flag == "--workers") cfg.workers = p.value_u64();
    else if (flag == "--queue") cfg.admission_queue = p.value_u64();
    else if (flag == "--queue-chunks") cfg.stream_queue_chunks = p.value_u64();
    else if (flag == "--fault-plan") p.value_into(cfg.fault_plan);
    else if (flag == "--help" || flag == "-h") {
      std::printf("maxelctl serve --spool DIR [flags]  (worker-pool broker)\n"
                  "  --workers N --queue Q --queue-chunks N --fault-plan SPEC\n"
                  "%s%s%s",
                  kBrokerFlagsHelp, net::cli::kServeFlagsHelp,
                  net::cli::kModeHelp);
      return 0;
    } else {
      std::fprintf(stderr, "maxelctl serve (broker): unknown flag %s\n",
                   flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.rounds_per_session == 0 ||
      cfg.workers == 0 || cfg.spool_dir.empty() ||
      cfg.stream_chunk_rounds == 0 || cfg.stream_queue_chunks == 0) {
    std::fprintf(stderr,
                 "maxelctl serve (broker): bad flags (--spool DIR required)\n");
    return 2;
  }
  if (!net::cli::check_fault_plan("maxelctl serve (broker)", cfg.fault_plan))
    return 2;

  try {
    Broker broker(cfg);
    {
      const net::cli::StopOnSignal on_signal(broker);
      std::printf("maxel broker listening on %s:%u (b=%zu, %zu "
                  "rounds/session, %zu workers, queue %zu, spool %s "
                  "[%zu..%zu])\n",
                  cfg.bind_addr.c_str(), broker.port(), cfg.bits,
                  cfg.rounds_per_session, cfg.workers, cfg.admission_queue,
                  cfg.spool_dir.c_str(), cfg.spool_low_watermark,
                  cfg.spool_high_watermark);
      std::fflush(stdout);
      broker.run();
    }

    const BrokerStats st = broker.stats();
    std::printf("served %llu sessions (%llu rounds) over %zu workers: "
                "%llu B out, %llu rejected busy, %llu rejected draining, "
                "wall %.3fs\n",
                static_cast<unsigned long long>(st.server.sessions_served),
                static_cast<unsigned long long>(st.server.rounds_served),
                cfg.workers,
                static_cast<unsigned long long>(st.server.bytes_sent),
                static_cast<unsigned long long>(st.admission_rejects),
                static_cast<unsigned long long>(st.drain_rejects),
                st.server.total_seconds);
    net::cli::dump_stats(st.to_json(), json_path);
    net::cli::write_file(metrics_path, broker.metrics().to_json());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxelctl serve (broker): %s\n", e.what());
    return 1;
  }
}

int spool_command(int argc, char** argv) {
  // `maxelctl spool purge --lane reusable --dir DIR` destroys the named
  // lane's resident files. Only the reusable lane is purgeable from
  // here: v2/v3 sessions are single-use and age out on their own, but a
  // reusable artifact lives forever until an operator retires it (e.g.
  // to force a re-garble with fresh flips).
  if (argc >= 1 && std::strcmp(argv[0], "purge") == 0) {
    std::string dir, lane;
    FlagParser p{argc - 1, argv + 1};
    std::string flag;
    while (p.next_flag(flag)) {
      if (flag == "--dir") p.value_into(dir);
      else if (flag == "--lane") p.value_into(lane);
      else {
        std::fprintf(stderr, "maxelctl spool purge: unknown flag %s\n",
                     flag.c_str());
        return 2;
      }
    }
    if (!p.ok || dir.empty() || lane != "reusable") {
      std::fprintf(stderr,
                   "maxelctl spool purge: --dir DIR --lane reusable required\n");
      return 2;
    }
    try {
      SessionSpool spool(SpoolConfig{dir, 0, true});
      const std::size_t removed = spool.purge_reusable();
      std::printf("purged %zu reusable artifact%s from %s\n", removed,
                  removed == 1 ? "" : "s", dir.c_str());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "maxelctl spool purge: %s\n", e.what());
      return 1;
    }
  }

  std::string dir;
  std::uint64_t fill = 0;
  std::size_t bits = 16, rounds = 128;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--dir") p.value_into(dir);
    else if (flag == "--fill") fill = p.value_u64();
    else if (flag == "--bits") bits = p.value_u64();
    else if (flag == "--rounds") rounds = p.value_u64();
    else if (flag == "--scheme") {
      const char* v = p.value();
      if (!v || !net::cli::parse_scheme(v, scheme)) {
        std::fprintf(stderr, "bad --scheme (halfgates|grr3|classic4)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "maxelctl spool: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || dir.empty() || bits == 0 || rounds == 0) {
    std::fprintf(stderr, "maxelctl spool: --dir DIR required\n");
    return 2;
  }

  try {
    SessionSpool spool(SpoolConfig{dir, 0, true});
    if (fill > 0) {
      const circuit::Circuit c =
          circuit::make_mac_circuit(circuit::MacOptions{bits, bits, true});
      core::GcCorePool pool(0, crypto::SystemRandom().next_block());
      std::vector<proto::PrecomputedSession> fresh(fill);
      pool.parallel_for(fill, [&](std::size_t item, std::size_t core) {
        fresh[item] =
            proto::garble_session(c, scheme, rounds, pool.core_rng(core));
      });
      for (auto& s : fresh) spool.put(std::move(s));
    }
    const SpoolStats st = spool.stats();
    std::printf("spool %s: %zu sessions ready, %.1f KB on disk"
                " (+%llu spooled, %llu purged claimed leftovers)\n",
                dir.c_str(), st.sessions_ready,
                static_cast<double>(st.bytes_on_disk) / 1024.0,
                static_cast<unsigned long long>(st.sessions_spooled),
                static_cast<unsigned long long>(st.purged_on_open));
    // Reusable lane: one line per resident artifact — the cache key a
    // broker looks up, the blob size, the persisted MAC-evaluation
    // counter, and the checksum lineage take() verifies against.
    for (const auto& e : spool.reusable_entries())
      std::printf("  reusable %s: %s, %.1f KB, %llu evaluations served, "
                  "lineage %.12s\n",
                  e.key.c_str(), e.name.c_str(),
                  static_cast<double>(e.bytes) / 1024.0,
                  static_cast<unsigned long long>(e.evaluations),
                  e.sha256_hex.c_str());
    std::printf("STATS {\"role\":\"spool\",\"ready\":%zu,\"bytes_on_disk\":%llu,"
                "\"spooled\":%llu,\"purged_on_open\":%llu,"
                "\"reusable_ready\":%zu,\"reusable_evaluations\":%llu}\n",
                st.sessions_ready,
                static_cast<unsigned long long>(st.bytes_on_disk),
                static_cast<unsigned long long>(st.sessions_spooled),
                static_cast<unsigned long long>(st.purged_on_open),
                st.reusable_ready,
                static_cast<unsigned long long>(st.reusable_evaluations));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxelctl spool: %s\n", e.what());
    return 1;
  }
}

int stats_command(int argc, char** argv) {
  std::string metrics_path;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--metrics") p.value_into(metrics_path);
    else {
      std::fprintf(stderr, "maxelctl stats: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || metrics_path.empty()) {
    std::fprintf(stderr, "maxelctl stats: --metrics FILE required\n");
    return 2;
  }
  std::ifstream is(metrics_path);
  if (!is) {
    std::fprintf(stderr, "maxelctl stats: cannot open %s\n",
                 metrics_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  std::printf("%s\n", pretty_json(buf.str()).c_str());
  return 0;
}

}  // namespace maxel::svc
