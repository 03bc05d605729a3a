// The command-line grammar the serve/connect entry points share: the
// maxel_server / maxel_client binaries and maxelctl's `serve` (all
// three fronts) and `connect`. Usage errors exit 2; --help exits 0.
#pragma once

#include <cstdint>
#include <string>

#include "gc/scheme.hpp"
#include "net/serve_core.hpp"

namespace maxel::net::cli {

// Argument cursor: value() flags a missing value by clearing ok.
struct FlagParser {
  int argc;
  char** argv;
  int i = 0;
  bool ok = true;

  bool next_flag(std::string& flag);
  const char* value();
  std::uint64_t value_u64();
  // Stores the next value into `out` when present.
  void value_into(std::string& out);
};

bool parse_scheme(const std::string& name, gc::Scheme& out);

// The unified --mode selector. Server side: which hellos are accepted
// (precomputed is always served; the flag gates the optional families).
// Client side: what the hello asks for.
struct ModeChoice {
  bool stream = false;
  bool v3 = false;
  bool reusable = false;
};
bool parse_mode(const char* v, ModeChoice& out);

// The four session modes with the tradeoffs operators pick between.
extern const char* const kModeHelp;
// The flags every `serve` front takes (parse_serve_flag).
extern const char* const kServeFlagsHelp;

enum class FlagResult { kUnknown, kTaken, kBad };

// Parses `flag` if it is one of the flags every `serve` front shares:
// --port --bind --bits --rounds --cores --seed --sessions --json
// --quiet --chunk-rounds --mode --idle-timeout --scheme. kBad has
// already printed its usage error.
FlagResult parse_serve_flag(FlagParser& p, const std::string& flag,
                            ServeOptions& cfg, std::string& json_path);

// Validates a --fault-plan / MAXEL_FAULT_PLAN spec up front so a typo
// is a usage error (exit 2), not a runtime failure mid-session.
bool check_fault_plan(const char* who, const std::string& spec);

// Prints `STATS {json}` on stdout and, when `path` is set, writes the
// JSON there too.
void dump_stats(const std::string& json, const std::string& path);

// Writes `text` plus a newline to `path` (no-op for an empty path).
void write_file(const std::string& path, const std::string& text);

// Routes SIGINT/SIGTERM to server.request_stop() while alive.
class StopOnSignal {
 public:
  template <class Server>
  explicit StopOnSignal(Server& server) {
    install([](void* s) { static_cast<Server*>(s)->request_stop(); },
            &server);
  }
  ~StopOnSignal() { install(nullptr, nullptr); }
  StopOnSignal(const StopOnSignal&) = delete;
  StopOnSignal& operator=(const StopOnSignal&) = delete;

 private:
  static void install(void (*stop)(void*), void* server);
};

}  // namespace maxel::net::cli
