// Command-line entry points for the service tier (broker + spool +
// metrics), wired into maxelctl next to the sequential net commands.
// argv excludes the program/subcommand name.
#pragma once

#include <string>

#include "net/cli.hpp"
#include "svc/spool_core.hpp"

namespace maxel::svc {

// The flags both brokers take on top of net::cli's serve flags.
extern const char* const kBrokerFlagsHelp;

// Parses `flag` if it is a net::cli serve flag or one of the spool
// flags both brokers share: --spool --low --high --cache --metrics.
net::cli::FlagResult parse_broker_flag(net::cli::FlagParser& p,
                                       const std::string& flag,
                                       SpoolServeOptions& cfg,
                                       std::string& json_path,
                                       std::string& metrics_path);

// maxelctl serve --spool DIR [--workers N] [--queue Q] [--queue-chunks N]
//   [--fault-plan SPEC] [the broker flags above]
// Runs the concurrent Broker. maxelctl routes `serve` here whenever
// --spool or --workers is present; otherwise the sequential
// net::serve_command handles it.
int broker_command(int argc, char** argv);

// maxelctl spool --dir DIR [--fill K --bits N --rounds M [--scheme S]]
// Opens (reconciling claimed/ leftovers), optionally garbles K sessions
// into the spool, then prints its stats — including one line per
// resident reusable artifact (key, size, evaluations served, checksum
// lineage) — as JSON.
//
// maxelctl spool purge --lane reusable --dir DIR
// Destroys the resident reusable artifacts, forcing the next broker on
// this spool to garble fresh flips.
int spool_command(int argc, char** argv);

// maxelctl stats --metrics FILE
// Pretty-prints a metrics JSON dump written by `serve --metrics`.
int stats_command(int argc, char** argv);

}  // namespace maxel::svc
