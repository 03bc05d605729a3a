#include "evloop/ev_service.hpp"

#include <cstdio>
#include <string>

#include "evloop/ev_broker.hpp"
#include "net/cli.hpp"
#include "svc/service.hpp"

namespace maxel::evloop {

using net::cli::FlagParser;
using net::cli::FlagResult;

int evloop_command(int argc, char** argv) {
  EvBrokerConfig cfg;
  std::string json_path, metrics_path;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--evloop") continue;  // the routing flag itself
    const FlagResult r =
        svc::parse_broker_flag(p, flag, cfg, json_path, metrics_path);
    if (r == FlagResult::kBad) return 2;
    if (r == FlagResult::kTaken) continue;
    if (flag == "--shards") cfg.shards = p.value_u64();
    else if (flag == "--backlog") cfg.listen_backlog = static_cast<int>(p.value_u64());
    else if (flag == "--help" || flag == "-h") {
      std::printf("maxelctl serve --evloop --spool DIR [flags]  (sharded "
                  "event-loop broker)\n"
                  "  --shards N --backlog B\n%s%s%s",
                  svc::kBrokerFlagsHelp, net::cli::kServeFlagsHelp,
                  net::cli::kModeHelp);
      return 0;
    } else {
      std::fprintf(stderr, "maxelctl serve (evloop): unknown flag %s\n",
                   flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.rounds_per_session == 0 ||
      cfg.shards == 0 || cfg.spool_dir.empty() ||
      cfg.stream_chunk_rounds == 0) {
    std::fprintf(stderr,
                 "maxelctl serve (evloop): bad flags (--spool DIR required, "
                 "--shards >= 1)\n");
    return 2;
  }

  try {
    EvBroker broker(cfg);
    {
      const net::cli::StopOnSignal on_signal(broker);
      std::printf("maxel evloop broker listening on %s:%u (b=%zu, %zu "
                  "rounds/session, %zu shards, backlog %d, spool %s "
                  "[%zu..%zu])\n",
                  cfg.bind_addr.c_str(), broker.port(), cfg.bits,
                  cfg.rounds_per_session, cfg.shards, cfg.listen_backlog,
                  cfg.spool_dir.c_str(), cfg.spool_low_watermark,
                  cfg.spool_high_watermark);
      std::fflush(stdout);
      broker.run();
    }

    const svc::BrokerStats st = broker.stats();
    std::printf("served %llu sessions (%llu rounds) over %zu shards: "
                "%llu B out, %llu rejected busy, wall %.3fs\n",
                static_cast<unsigned long long>(st.server.sessions_served),
                static_cast<unsigned long long>(st.server.rounds_served),
                cfg.shards,
                static_cast<unsigned long long>(st.server.bytes_sent),
                static_cast<unsigned long long>(st.admission_rejects),
                st.server.total_seconds);
    net::cli::dump_stats(st.to_json(), json_path);
    net::cli::write_file(metrics_path, broker.metrics().to_json());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxelctl serve (evloop): %s\n", e.what());
    return 1;
  }
}

}  // namespace maxel::evloop
