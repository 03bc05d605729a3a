// Command-line entry point for the event-loop broker, wired into
// maxelctl next to the blocking broker (svc/service.hpp). argv
// excludes the program/subcommand name.
#pragma once

namespace maxel::evloop {

// maxelctl serve --evloop --spool DIR [--shards N] [--backlog B]
//   [the broker flags of svc/service.hpp]
// Runs the sharded EvBroker. maxelctl routes `serve` here when
// --evloop is present. Takes no --fault-plan (and ignores
// MAXEL_FAULT_PLAN): fault injection wraps blocking channels only.
int evloop_command(int argc, char** argv);

}  // namespace maxel::evloop
