#include "net/cli.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "net/fault.hpp"

namespace maxel::net::cli {

namespace {

void (*g_stop)(void*) = nullptr;
void* g_stop_server = nullptr;

void handle_stop_signal(int) {
  if (g_stop != nullptr) g_stop(g_stop_server);
}

}  // namespace

bool FlagParser::next_flag(std::string& flag) {
  if (i >= argc) return false;
  flag = argv[i++];
  return true;
}

const char* FlagParser::value() {
  if (i >= argc) {
    ok = false;
    return nullptr;
  }
  return argv[i++];
}

std::uint64_t FlagParser::value_u64() {
  const char* v = value();
  return v ? std::strtoull(v, nullptr, 10) : 0;
}

void FlagParser::value_into(std::string& out) {
  if (const char* v = value()) out = v;
}

bool parse_scheme(const std::string& name, gc::Scheme& out) {
  if (name == "halfgates") out = gc::Scheme::kHalfGates;
  else if (name == "grr3") out = gc::Scheme::kGrr3;
  else if (name == "classic4") out = gc::Scheme::kClassic4;
  else return false;
  return true;
}

bool parse_mode(const char* v, ModeChoice& out) {
  if (v == nullptr) return false;
  const std::string name = v;
  if (name == "precomputed") out = {false, false, false};
  else if (name == "stream") out = {true, false, false};
  else if (name == "v3") out = {false, true, false};
  else if (name == "reusable") out = {false, true, true};
  else return false;
  return true;
}

const char* const kModeHelp =
    "  --mode precomputed  classic v2 per-round flow off pre-garbled\n"
    "                      sessions: strongest-understood privacy for\n"
    "                      both parties, highest bytes/MAC (full tables\n"
    "                      + labels every round).\n"
    "  --mode stream       garble-while-transfer: same privacy as\n"
    "                      precomputed, bounded server memory, tables\n"
    "                      still shipped per round.\n"
    "  --mode v3           slim wire (PRG-seeded labels, packed select\n"
    "                      bits) + cross-session OT pool: same privacy,\n"
    "                      ~40% of the v2 bytes, base OT amortized to\n"
    "                      ~zero across sessions.\n"
    "  --mode reusable     garble once, evaluate any number of\n"
    "                      sessions off one cached artifact: lowest\n"
    "                      bytes/MAC and highest MAC/s, but WEAKER\n"
    "                      GARBLER PRIVACY (public-model/private-query\n"
    "                      only — see docs/SECURITY_MODELS.md).\n";

const char* const kServeFlagsHelp =
    "  --port N --bind ADDR --bits N --rounds N --sessions N\n"
    "  --cores N --seed N --scheme {halfgates|grr3|classic4}\n"
    "  --chunk-rounds N --idle-timeout MS --json PATH --quiet\n"
    "  --mode {precomputed|stream|v3|reusable}  serve only this mode\n"
    "        family (default: all four):\n";

FlagResult parse_serve_flag(FlagParser& p, const std::string& flag,
                            ServeOptions& cfg, std::string& json_path) {
  if (flag == "--port") cfg.port = static_cast<std::uint16_t>(p.value_u64());
  else if (flag == "--bind") p.value_into(cfg.bind_addr);
  else if (flag == "--bits") cfg.bits = p.value_u64();
  else if (flag == "--rounds") cfg.rounds_per_session = p.value_u64();
  else if (flag == "--cores") cfg.precompute_cores = p.value_u64();
  else if (flag == "--seed") cfg.demo_seed = p.value_u64();
  else if (flag == "--sessions") cfg.max_sessions = p.value_u64();
  else if (flag == "--json") p.value_into(json_path);
  else if (flag == "--quiet") cfg.verbose = false;
  else if (flag == "--chunk-rounds") cfg.stream_chunk_rounds = p.value_u64();
  else if (flag == "--idle-timeout") cfg.idle_timeout_ms = static_cast<int>(p.value_u64());
  else if (flag == "--mode") {
    // Restricts the server to one mode family (precomputed v2 is
    // always served as the baseline every client can fall back to).
    ModeChoice mc;
    if (!parse_mode(p.value(), mc)) {
      std::fprintf(stderr, "bad --mode (precomputed|stream|v3|reusable)\n");
      return FlagResult::kBad;
    }
    cfg.allow_stream = mc.stream;
    cfg.allow_v3 = mc.v3;
    cfg.allow_reusable = mc.reusable;
  } else if (flag == "--scheme") {
    const char* v = p.value();
    if (!v || !parse_scheme(v, cfg.scheme)) {
      std::fprintf(stderr, "bad --scheme (halfgates|grr3|classic4)\n");
      return FlagResult::kBad;
    }
  } else {
    return FlagResult::kUnknown;
  }
  return FlagResult::kTaken;
}

bool check_fault_plan(const char* who, const std::string& spec) {
  if (spec.empty()) return true;
  try {
    FaultPlan::parse(spec);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", who, e.what());
    return false;
  }
}

void dump_stats(const std::string& json, const std::string& path) {
  std::printf("STATS %s\n", json.c_str());
  std::fflush(stdout);
  write_file(path, json);
}

void write_file(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream os(path);
  os << text << "\n";
}

void StopOnSignal::install(void (*stop)(void*), void* server) {
  g_stop = stop;
  g_stop_server = server;
  if (stop != nullptr) {
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
  }
}

}  // namespace maxel::net::cli
