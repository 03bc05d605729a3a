#include "net/service.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/cli.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace maxel::net {

int serve_command(int argc, char** argv) {
  ServerConfig cfg;
  // The env knob lets tests/net_e2e.sh chaos-test the stock binaries
  // without touching their command lines; an explicit flag wins.
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path;
  cli::FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    const cli::FlagResult r = cli::parse_serve_flag(p, flag, cfg, json_path);
    if (r == cli::FlagResult::kBad) return 2;
    if (r == cli::FlagResult::kTaken) continue;
    if (flag == "--queue-chunks") cfg.stream_queue_chunks = p.value_u64();
    else if (flag == "--fault-plan") p.value_into(cfg.fault_plan);
    else if (flag == "--help" || flag == "-h") {
      std::printf("maxel_server serve [flags]\n"
                  "  --queue-chunks N --fault-plan SPEC\n%s%s",
                  cli::kServeFlagsHelp, cli::kModeHelp);
      return 0;
    } else {
      std::fprintf(stderr, "maxel_server: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.rounds_per_session == 0 ||
      cfg.stream_chunk_rounds == 0 || cfg.stream_queue_chunks == 0) {
    std::fprintf(stderr, "maxel_server: bad flags\n");
    return 2;
  }
  if (!cli::check_fault_plan("maxel_server", cfg.fault_plan)) return 2;

  try {
    Server server(cfg);
    {
      const cli::StopOnSignal on_signal(server);
      std::printf("maxel_server listening on %s:%u (b=%zu, %zu rounds/session, "
                  "%s)\n",
                  cfg.bind_addr.c_str(), server.port(), cfg.bits,
                  cfg.rounds_per_session, gc::scheme_name(cfg.scheme));
      std::fflush(stdout);
      server.serve();
    }

    const ServerStats& st = server.stats();
    std::printf("served %llu sessions (%llu rounds): %llu B out, %llu B in, "
                "handshake %.3fs, transfer %.3fs, ot %.3fs, wall %.3fs\n",
                static_cast<unsigned long long>(st.sessions_served),
                static_cast<unsigned long long>(st.rounds_served),
                static_cast<unsigned long long>(st.bytes_sent),
                static_cast<unsigned long long>(st.bytes_received),
                st.handshake_seconds, st.transfer_seconds, st.ot_seconds,
                st.total_seconds);
    cli::dump_stats(st.to_json(), json_path);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxel_server: %s\n", e.what());
    return 1;
  }
}

int connect_command(int argc, char** argv) {
  ClientConfig cfg;
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path;
  cli::FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--host") p.value_into(cfg.host);
    else if (flag == "--port") cfg.port = static_cast<std::uint16_t>(p.value_u64());
    else if (flag == "--bits") cfg.bits = p.value_u64();
    else if (flag == "--rounds") cfg.rounds_hint = static_cast<std::uint32_t>(p.value_u64());
    else if (flag == "--seed") cfg.demo_seed = p.value_u64();
    else if (flag == "--no-check") cfg.check = false;
    else if (flag == "--quiet") cfg.verbose = false;
    else if (flag == "--mode") {
      cli::ModeChoice mc;
      if (!cli::parse_mode(p.value(), mc)) {
        std::fprintf(stderr,
                     "bad --mode (precomputed|stream|v3|reusable)\n");
        return 2;
      }
      cfg.mode = mc.reusable ? SessionMode::kReusable
                 : mc.stream ? SessionMode::kStream
                             : SessionMode::kPrecomputed;
      cfg.protocol = mc.v3 ? kProtocolVersionV3 : kProtocolVersion;
    }
    else if (flag == "--help" || flag == "-h") {
      std::printf(
          "maxel_client connect [flags]\n"
          "  --host H --port N --bits N --rounds N --seed N\n"
          "  --ot {base|iknp} --scheme {halfgates|grr3|classic4}\n"
          "  --retries N --retry-backoff MS --retry-backoff-max MS\n"
          "  --retry-seed N --net-timeout MS --fault-plan SPEC\n"
          "  --json PATH --no-check --quiet\n"
          "  --mode {precomputed|stream|v3|reusable}  session mode to\n"
          "        request (default: precomputed):\n%s",
          cli::kModeHelp);
      return 0;
    }
    else if (flag == "--json") p.value_into(json_path);
    else if (flag == "--retries") cfg.retry.max_attempts = static_cast<int>(p.value_u64());
    else if (flag == "--retry-backoff") cfg.retry.backoff_ms = static_cast<int>(p.value_u64());
    else if (flag == "--retry-backoff-max") cfg.retry.backoff_max_ms = static_cast<int>(p.value_u64());
    else if (flag == "--retry-seed") cfg.retry.jitter_seed = p.value_u64();
    else if (flag == "--fault-plan") p.value_into(cfg.fault_plan);
    else if (flag == "--net-timeout") {
      const int ms = static_cast<int>(p.value_u64());
      cfg.tcp.recv_timeout_ms = ms;
      cfg.tcp.send_timeout_ms = ms;
    }
    else if (flag == "--ot") {
      const char* v = p.value();
      if (v && std::strcmp(v, "base") == 0) cfg.ot = OtChoice::kBase;
      else if (v && std::strcmp(v, "iknp") == 0) cfg.ot = OtChoice::kIknp;
      else {
        std::fprintf(stderr, "bad --ot (base|iknp)\n");
        return 2;
      }
    } else if (flag == "--scheme") {
      const char* v = p.value();
      if (!v || !cli::parse_scheme(v, cfg.scheme)) {
        std::fprintf(stderr, "bad --scheme (halfgates|grr3|classic4)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "maxel_client: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.retry.max_attempts < 1) {
    std::fprintf(stderr, "maxel_client: bad flags\n");
    return 2;
  }
  if (!cli::check_fault_plan("maxel_client", cfg.fault_plan)) return 2;

  try {
    const ClientStats st = run_client(cfg);
    std::printf("evaluated %u rounds: MAC = %llu%s, %llu B in, %llu B out, "
                "attempts %u, handshake %.3fs, transfer %.3fs, ot %.3fs, "
                "eval %.3fs\n",
                st.rounds, static_cast<unsigned long long>(st.output_value),
                st.checked ? (st.verified ? " (VERIFIED)" : " (MISMATCH)") : "",
                static_cast<unsigned long long>(st.bytes_received),
                static_cast<unsigned long long>(st.bytes_sent), st.attempts,
                st.handshake_seconds, st.transfer_seconds, st.ot_seconds,
                st.eval_seconds);
    cli::dump_stats(st.to_json(), json_path);
    return st.checked && !st.verified ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxel_client: %s\n", e.what());
    return 1;
  }
}

}  // namespace maxel::net
