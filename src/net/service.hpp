// Command-line entry points for the network service, shared between the
// standalone maxel_server / maxel_client binaries and the maxelctl
// `serve` / `connect` subcommands. argv excludes the program/subcommand
// name. Both print a human summary on exit and dump the session stats
// as JSON (stdout line `STATS {...}`, plus --json FILE).
#pragma once

namespace maxel::net {

// maxel_server [the shared serve flags of net/cli.hpp]
//              [--queue-chunks Q] [--fault-plan SPEC]
int serve_command(int argc, char** argv);

// maxel_client [--host H] [--port P] [--bits N] [--rounds M]
//              [--scheme ...] [--ot base|iknp] [--seed S] [--no-check]
//              [--mode precomputed|stream|v3|reusable]
//              [--json FILE] [--quiet] [--retries N] [--retry-backoff MS]
//              [--retry-backoff-max MS] [--retry-seed S]
//              [--net-timeout MS] [--fault-plan SPEC]
//
// Both also honor MAXEL_FAULT_PLAN (env) as the default --fault-plan,
// so the stock binaries can be chaos-tested without flag changes; see
// net/fault.hpp for the plan grammar and docs/TESTING.md for usage.
int connect_command(int argc, char** argv);

}  // namespace maxel::net
