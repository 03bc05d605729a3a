// The serving core under every garbler front (net::Server, the
// svc::Broker worker pool, evloop::EvBroker): what a server serves and
// how one blocking connection is served, each written once.
//
//   ServeOptions    the config fields all three fronts share.
//   ServeContext    "what this server serves": circuit, handshake
//                   expectation, OT-pool registry, reusable artifact,
//                   session shape, and the two session sources a front
//                   plugs in (a RAM bank or a disk spool for v2, inline
//                   garbling or the spool for v3). The non-blocking
//                   evloop::EvSession runs off the same struct.
//   ServedCircuit   owns everything a ServeContext points at, built
//                   from ServeOptions in one place.
//   serve_connection  the blocking four-mode dispatch: handshake, then
//                   reusable / v3 / stream / precomputed, with one
//                   failure taxonomy for every front's accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/scheme.hpp"
#include "gc/v3.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "proto/channel.hpp"
#include "proto/precompute.hpp"
#include "proto/v3_session.hpp"

namespace maxel::net {

// Config fields shared by ServerConfig, svc::BrokerConfig and
// evloop::EvBrokerConfig.
struct ServeOptions {
  std::string bind_addr = "0.0.0.0";
  std::uint16_t port = 7117;  // 0 picks an ephemeral port (see port())
  std::size_t bits = 16;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::size_t rounds_per_session = 128;
  std::uint64_t demo_seed = 7;       // public demo-input seed (demo_inputs.hpp)
  std::size_t precompute_cores = 0;  // 0 = hardware concurrency
  std::uint64_t max_sessions = 0;    // stop after this many; 0 = until stopped
  bool verbose = true;               // per-session log line on stderr
  // Stream mode (garble-while-transfer): rounds per wire chunk.
  std::size_t stream_chunk_rounds = 16;
  bool allow_stream = true;            // reject kStream hellos when false
  bool allow_v3 = true;                // accept protocol-v3 hellos
  // Serve SessionMode::kReusable (garble-once artifact; weaker garbler
  // privacy — docs/SECURITY_MODELS.md). Needs allow_v3: the reusable
  // flow rides the v3 hello extension and OT pool.
  bool allow_reusable = true;
  TcpOptions tcp;
  // Per-connection idle deadline: when > 0 it overrides both
  // tcp.recv_timeout_ms and tcp.send_timeout_ms, so a client that goes
  // silent (or stops draining) frees its worker within this bound
  // (counted in idle_timeouts when it fires).
  int idle_timeout_ms = 0;

  // `tcp` with the idle deadline applied.
  [[nodiscard]] TcpOptions connection_tcp() const;
};

struct ServerStats {
  std::uint64_t sessions_served = 0;
  std::uint64_t rounds_served = 0;
  std::uint64_t handshakes_rejected = 0;
  std::uint64_t connection_errors = 0;
  std::uint64_t idle_timeouts = 0;  // subset of connection_errors
  std::uint64_t bytes_sent = 0;      // payload bytes, summed over sessions
  std::uint64_t bytes_received = 0;
  std::uint64_t sessions_precomputed = 0;
  std::uint64_t stream_sessions_served = 0;  // subset of sessions_served
  std::uint64_t v3_sessions_served = 0;      // subset of sessions_served
  // Reusable-mode sessions (subset of sessions_served) and how many of
  // them had to ship the artifact view (the rest ran off the client's
  // hash-confirmed cache).
  std::uint64_t reusable_sessions_served = 0;
  std::uint64_t reusable_artifacts_sent = 0;
  std::uint64_t reusable_garbles = 0;  // times a reusable artifact was built
  std::uint64_t v3_fresh_pools = 0;   // v3/reusable sessions that paid a base OT
  std::uint64_t v3_ot_extended = 0;   // correlated-OT indices materialized
  // Most tables resident server-side for any single session: the whole
  // session for precomputed mode, the bounded chunk queue for stream
  // mode. Merged with max, not sum — it is a high-water mark.
  std::uint64_t peak_resident_tables = 0;
  double handshake_seconds = 0;
  double transfer_seconds = 0;  // garbled tables + labels push
  double ot_seconds = 0;        // OT setup + per-round label OT
  double first_table_seconds = 0;  // session start -> first tables on the wire
  double total_seconds = 0;     // serve() wall time

  // Accumulates another stats block into this one (counters and timers
  // are additive, high-water marks take the max) — how the brokers fold
  // per-worker stats into one service-wide snapshot.
  void merge(const ServerStats& other);

  [[nodiscard]] std::string to_json() const;
};

// Everything a server shares across its sessions. The registry and the
// reusable context are process-wide; take_session / take_v3 are the
// front's session sources.
struct ServeContext {
  const circuit::Circuit* circ = nullptr;
  ServerExpectation expect;
  V3PoolRegistry* reg = nullptr;
  const ReusableServeContext* reusable = nullptr;  // null: mode off
  std::size_t bits = 16;
  std::size_t rounds = 128;
  std::uint64_t demo_seed = 7;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::size_t stream_chunk_rounds = 16;
  // Backpressure bound of the blocking stream path's garbler thread, in
  // chunks; EvSession garbles inline and ignores it.
  std::size_t stream_queue_chunks = 4;
  std::function<proto::PrecomputedSession()> take_session;
  std::function<proto::PrecomputedSessionV3()> take_v3;
};

// Owns the circuit, its v3 analysis, the OT-pool registry (one garbling
// delta), the demo garbler inputs every session replays and, once
// installed, the reusable artifact — and the ServeContext pointing at
// them, filled from ServeOptions. The front plugs its session sources
// into context().
class ServedCircuit {
 public:
  explicit ServedCircuit(const ServeOptions& cfg);
  ServedCircuit(const ServedCircuit&) = delete;
  ServedCircuit& operator=(const ServedCircuit&) = delete;

  [[nodiscard]] const circuit::Circuit& circuit() const { return circ_; }
  [[nodiscard]] V3PoolRegistry& registry() { return reg_; }
  [[nodiscard]] const V3PoolRegistry& registry() const { return reg_; }
  [[nodiscard]] ServeContext& context() { return ctx_; }
  [[nodiscard]] const ServeContext& context() const { return ctx_; }

  // Builds the reusable serve context every reusable session runs off.
  // Throws std::invalid_argument if the artifact does not fit the
  // circuit (see make_reusable_context).
  void install_reusable(gc::ReusableCircuit artifact);

  // One v2 session / one v3 session (under the registry delta) of the
  // served shape.
  [[nodiscard]] proto::PrecomputedSession garble_session(
      crypto::RandomSource& rng) const;
  [[nodiscard]] proto::PrecomputedSessionV3 garble_v3(
      crypto::RandomSource& rng) const;

 private:
  circuit::Circuit circ_;
  gc::V3Analysis an_;
  V3PoolRegistry reg_;
  std::vector<std::vector<bool>> g_bits_;  // demo garbler inputs per round
  std::optional<ReusableServeContext> reusable_;
  ServeContext ctx_;
};

// How a served connection ended; each kind maps to the same counters
// and metrics on every front.
enum class SessionFailure : std::uint8_t {
  kNone = 0,
  kHandshake,    // typed reject sent (handshakes_rejected)
  kIdleTimeout,  // idle deadline fired (idle_timeouts + connection_errors)
  kPeerClosed,   // hangup mid-session (peer_disconnects + connection_errors)
  kOther,        // transport, protocol or logic error (connection_errors)
};

// Bumps the ServerStats failure counters for `f`.
void count_failure(ServerStats& stats, SessionFailure f);

struct ServedSession {
  ServerStats stats;  // this connection's block, failure counters included
  const char* mode = "?";  // precomputed|stream|v3|reusable once known
  SessionFailure failure = SessionFailure::kNone;
  std::string error;  // what() of the failure
  double session_seconds = 0;  // handshake done -> session served
};

// Serves one accepted connection to completion on the calling thread:
// v2/v3 handshake against ctx.expect, then the mode the hello asked
// for — reusable off ctx.reusable, v3 off ctx.take_v3, stream garbled
// on a gc::StreamingGarbler thread, precomputed off ctx.take_session.
// `rng` drives the online OT. Never throws: failures come back typed.
// Pass a fresh-per-connection channel (byte counters are read off it).
ServedSession serve_connection(proto::Channel& ch, const ServeContext& ctx,
                               crypto::RandomSource& rng);

// "[who] rejected client: ..." style stderr line for a failed session.
void log_failure(const char* who, const ServedSession& s);

}  // namespace maxel::net
