#include "net/serve_core.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "circuit/circuits.hpp"
#include "gc/streaming_garbler.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/chunk_io.hpp"

namespace maxel::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Serves one pre-garbled session to a handshaken client: IKNP setup (if
// the hello asked for it), then per round table/label push + label OT.
void serve_precomputed(proto::Channel& ch, const ClientHello& hello,
                       proto::PrecomputedSession session,
                       const ServeContext& ctx, crypto::RandomSource& rng,
                       ServerStats& stats) {
  const std::uint64_t resident_tables =
      session.rounds.empty()
          ? 0
          : session.rounds.size() * session.rounds.front().tables.tables.size();
  stats.peak_resident_tables =
      std::max(stats.peak_resident_tables, resident_tables);
  const auto t_start = Clock::now();
  proto::PrecomputedGarblerParty garbler(
      std::move(session), ch, rng,
      hello.ot == static_cast<std::uint8_t>(OtChoice::kIknp)
          ? proto::PrecomputedOtMode::kIknp
          : proto::PrecomputedOtMode::kBase);

  double transfer_s = 0, ot_s = 0;
  {
    const auto t0 = Clock::now();
    garbler.setup_step2();  // no-ops under base OT
    garbler.setup_step4();
    ot_s += seconds_since(t0);
  }

  DemoInputStream a_inputs(ctx.demo_seed, kGarblerStream, ctx.bits);
  for (std::size_t r = 0; r < ctx.rounds; ++r) {
    auto t0 = Clock::now();
    garbler.garble_and_send(a_inputs.next_bits());
    transfer_s += seconds_since(t0);
    if (r == 0) stats.first_table_seconds += seconds_since(t_start);
    t0 = Clock::now();
    garbler.finish_ot();
    ot_s += seconds_since(t0);
  }
  // The final OT ciphertexts may still sit in the write buffer; the
  // client is waiting on them.
  ch.flush();

  stats.transfer_seconds += transfer_s;
  stats.ot_seconds += ot_s;
  stats.bytes_sent += ch.bytes_sent();
  stats.bytes_received += ch.bytes_received();
  stats.rounds_served += ctx.rounds;
  ++stats.sessions_served;
}

// Serves one garble-while-transfer session: a gc::StreamingGarbler
// produces chunks of rounds on its own thread while this thread ships
// each chunk (proto::send_chunk) and runs the per-round label OT —
// garbling, TCP transfer and remote evaluation overlap, and resident
// garbled state is bounded by the chunk queue instead of the session.
void serve_streaming(proto::Channel& ch, const ClientHello& hello,
                     const ServeContext& ctx, crypto::RandomSource& rng,
                     ServerStats& stats) {
  const auto t_start = Clock::now();

  // Start the producer first so garbling overlaps the OT setup round
  // trips below; the bounded queue keeps resident state O(chunks).
  gc::StreamingGarbler::Options gopt;
  gopt.chunk_rounds = ctx.stream_chunk_rounds;
  gopt.queue_chunks = ctx.stream_queue_chunks;
  gc::StreamingGarbler garbler(*ctx.circ, ctx.scheme, ctx.rounds, gopt,
                               rng.next_block());

  std::unique_ptr<ot::BaseOtSender> base_ot;
  std::unique_ptr<ot::IknpSender> iknp_ot;
  ot::OtSender* ot = nullptr;
  double transfer_s = 0, ot_s = 0;
  if (hello.ot == static_cast<std::uint8_t>(OtChoice::kIknp)) {
    const auto t0 = Clock::now();
    iknp_ot = std::make_unique<ot::IknpSender>(ch, rng);
    iknp_ot->setup_step2();
    iknp_ot->setup_step4();
    ot_s += seconds_since(t0);
    ot = iknp_ot.get();
  } else {
    base_ot = std::make_unique<ot::BaseOtSender>(ch, rng);
    ot = base_ot.get();
  }

  DemoInputStream a_inputs(ctx.demo_seed, kGarblerStream, ctx.bits);
  const crypto::Block delta = garbler.delta();
  bool first_chunk = true;
  std::size_t served = 0;
  gc::SessionChunk chunk;
  while (garbler.next_chunk(chunk)) {
    // Lift the chunk to its wire view: pick the active garbler-input
    // label per bit; evaluator pairs stay server-side for the OT.
    proto::WireChunk wc;
    wc.scheme = ctx.scheme;
    wc.first_round = chunk.first_round;
    wc.initial_state_labels = std::move(chunk.initial_state_labels);
    wc.rounds.reserve(chunk.rounds.size());
    for (auto& rm : chunk.rounds) {
      proto::WireChunk::Round wr;
      wr.tables = std::move(rm.tables);
      const std::vector<bool> a_bits = a_inputs.next_bits();
      wr.garbler_labels.resize(a_bits.size());
      for (std::size_t i = 0; i < a_bits.size(); ++i)
        wr.garbler_labels[i] =
            a_bits[i] ? rm.garbler_labels0[i] ^ delta : rm.garbler_labels0[i];
      wr.fixed_labels = std::move(rm.fixed_labels);
      wr.output_map = std::move(rm.output_map);
      wc.rounds.push_back(std::move(wr));
    }
    auto t0 = Clock::now();
    proto::send_chunk(ch, wc);
    transfer_s += seconds_since(t0);
    if (first_chunk) {
      stats.first_table_seconds += seconds_since(t_start);
      first_chunk = false;
    }
    // Per-round label OT, same phase cadence as the precomputed path
    // (send_phase2 recvs, which auto-flushes the chunk + phase-1 data).
    t0 = Clock::now();
    for (const auto& rm : chunk.rounds) {
      ot->send_phase1(rm.evaluator_pairs.size());
      ot->send_phase2(rm.evaluator_pairs);
    }
    ot_s += seconds_since(t0);
    served += chunk.rounds.size();
  }
  ch.flush();

  stats.transfer_seconds += transfer_s;
  stats.ot_seconds += ot_s;
  stats.bytes_sent += ch.bytes_sent();
  stats.bytes_received += ch.bytes_received();
  stats.rounds_served += served;
  stats.peak_resident_tables =
      std::max(stats.peak_resident_tables, garbler.peak_resident_tables());
  ++stats.sessions_served;
  ++stats.stream_sessions_served;
}

}  // namespace

TcpOptions ServeOptions::connection_tcp() const {
  TcpOptions t = tcp;
  if (idle_timeout_ms > 0) {
    t.recv_timeout_ms = idle_timeout_ms;
    t.send_timeout_ms = idle_timeout_ms;
  }
  return t;
}

void ServerStats::merge(const ServerStats& other) {
  sessions_served += other.sessions_served;
  rounds_served += other.rounds_served;
  handshakes_rejected += other.handshakes_rejected;
  connection_errors += other.connection_errors;
  idle_timeouts += other.idle_timeouts;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  sessions_precomputed += other.sessions_precomputed;
  stream_sessions_served += other.stream_sessions_served;
  v3_sessions_served += other.v3_sessions_served;
  reusable_sessions_served += other.reusable_sessions_served;
  reusable_artifacts_sent += other.reusable_artifacts_sent;
  reusable_garbles += other.reusable_garbles;
  v3_fresh_pools += other.v3_fresh_pools;
  v3_ot_extended += other.v3_ot_extended;
  peak_resident_tables = std::max(peak_resident_tables,
                                  other.peak_resident_tables);
  handshake_seconds += other.handshake_seconds;
  transfer_seconds += other.transfer_seconds;
  ot_seconds += other.ot_seconds;
  first_table_seconds += other.first_table_seconds;
  total_seconds += other.total_seconds;
}

std::string ServerStats::to_json() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"server\",\"sessions_served\":%llu,\"rounds_served\":%llu,"
      "\"handshakes_rejected\":%llu,\"connection_errors\":%llu,"
      "\"idle_timeouts\":%llu,"
      "\"bytes_sent\":%llu,\"bytes_received\":%llu,"
      "\"sessions_precomputed\":%llu,\"stream_sessions_served\":%llu,"
      "\"v3_sessions_served\":%llu,"
      "\"reusable_sessions_served\":%llu,\"reusable_artifacts_sent\":%llu,"
      "\"reusable_garbles\":%llu,"
      "\"v3_fresh_pools\":%llu,"
      "\"v3_ot_extended\":%llu,"
      "\"peak_resident_tables\":%llu,\"handshake_seconds\":%.6f,"
      "\"transfer_seconds\":%.6f,\"ot_seconds\":%.6f,"
      "\"first_table_seconds\":%.6f,\"total_seconds\":%.6f}",
      static_cast<unsigned long long>(sessions_served),
      static_cast<unsigned long long>(rounds_served),
      static_cast<unsigned long long>(handshakes_rejected),
      static_cast<unsigned long long>(connection_errors),
      static_cast<unsigned long long>(idle_timeouts),
      static_cast<unsigned long long>(bytes_sent),
      static_cast<unsigned long long>(bytes_received),
      static_cast<unsigned long long>(sessions_precomputed),
      static_cast<unsigned long long>(stream_sessions_served),
      static_cast<unsigned long long>(v3_sessions_served),
      static_cast<unsigned long long>(reusable_sessions_served),
      static_cast<unsigned long long>(reusable_artifacts_sent),
      static_cast<unsigned long long>(reusable_garbles),
      static_cast<unsigned long long>(v3_fresh_pools),
      static_cast<unsigned long long>(v3_ot_extended),
      static_cast<unsigned long long>(peak_resident_tables),
      handshake_seconds, transfer_seconds, ot_seconds, first_table_seconds,
      total_seconds);
  return buf;
}

ServedCircuit::ServedCircuit(const ServeOptions& cfg)
    : circ_(circuit::make_mac_circuit(
          circuit::MacOptions{cfg.bits, cfg.bits, true})),
      an_(gc::analyze_v3(circ_)),
      reg_(crypto::SystemRandom().next_block()),
      g_bits_(cfg.rounds_per_session) {
  // Demo garbler inputs are deterministic, so every v3 session — inline
  // or garbled ahead into a spool — replays the same rows.
  DemoInputStream a_inputs(cfg.demo_seed, kGarblerStream, cfg.bits);
  for (auto& row : g_bits_) row = a_inputs.next_bits();

  ctx_.circ = &circ_;
  ctx_.expect.scheme = cfg.scheme;
  ctx_.expect.bit_width = static_cast<std::uint32_t>(cfg.bits);
  ctx_.expect.circuit_hash = circuit_fingerprint(circ_);
  ctx_.expect.rounds_per_session =
      static_cast<std::uint32_t>(cfg.rounds_per_session);
  ctx_.expect.allow_stream = cfg.allow_stream;
  ctx_.expect.allow_v3 = cfg.allow_v3;
  ctx_.expect.allow_reusable = cfg.allow_v3 && cfg.allow_reusable;
  ctx_.reg = &reg_;
  ctx_.bits = cfg.bits;
  ctx_.rounds = cfg.rounds_per_session;
  ctx_.demo_seed = cfg.demo_seed;
  ctx_.scheme = cfg.scheme;
  ctx_.stream_chunk_rounds = cfg.stream_chunk_rounds;
}

void ServedCircuit::install_reusable(gc::ReusableCircuit artifact) {
  reusable_ = make_reusable_context(circ_, std::move(artifact),
                                    ctx_.expect.rounds_per_session,
                                    ctx_.demo_seed);
  ctx_.reusable = &*reusable_;
}

proto::PrecomputedSession ServedCircuit::garble_session(
    crypto::RandomSource& rng) const {
  return proto::garble_session(circ_, ctx_.scheme, ctx_.rounds, rng);
}

proto::PrecomputedSessionV3 ServedCircuit::garble_v3(
    crypto::RandomSource& rng) const {
  return proto::garble_session_v3(circ_, an_, g_bits_, reg_.delta(),
                                  rng.next_block(), rng);
}

void count_failure(ServerStats& stats, SessionFailure f) {
  switch (f) {
    case SessionFailure::kNone:
      return;
    case SessionFailure::kHandshake:
      ++stats.handshakes_rejected;
      return;
    case SessionFailure::kIdleTimeout:
      ++stats.idle_timeouts;
      ++stats.connection_errors;
      return;
    case SessionFailure::kPeerClosed:
    case SessionFailure::kOther:
      ++stats.connection_errors;
      return;
  }
}

ServedSession serve_connection(proto::Channel& ch, const ServeContext& ctx,
                               crypto::RandomSource& rng) {
  ServedSession out;
  ServerStats& stats = out.stats;
  const auto fail = [&](SessionFailure f, const std::exception& e) {
    out.failure = f;
    out.error = e.what();
    count_failure(stats, f);
  };
  const auto t_hs = Clock::now();
  try {
    // server_handshake_v23 sends the typed reject and throws on mismatch.
    const V23Handshake hs = server_handshake_v23(ch, ctx.expect);
    const ClientHello& hello = hs.hello;
    stats.handshake_seconds = seconds_since(t_hs);
    const bool v3 = hs.version == kProtocolVersionV3;
    const auto t_sess = Clock::now();
    if (v3 &&
        hello.mode == static_cast<std::uint8_t>(SessionMode::kReusable)) {
      // Garble-once lane: no per-session garbling at all; the handshake
      // already rejected the mode if no artifact is installed.
      out.mode = "reusable";
      serve_reusable_session(ch, *ctx.reg, *hs.ext, *ctx.reusable, stats);
    } else if (v3) {
      // Slim-wire session under the registry delta; the registry holds
      // this client's OT pool across connections.
      out.mode = "v3";
      const auto t0 = Clock::now();
      const proto::PrecomputedSessionV3 session = ctx.take_v3();
      stats.first_table_seconds += seconds_since(t0);
      const auto t1 = Clock::now();
      serve_v3_session(ch, *ctx.reg, *hs.ext, *ctx.circ, session, stats);
      stats.transfer_seconds += seconds_since(t1);
    } else if (hello.mode ==
               static_cast<std::uint8_t>(SessionMode::kStream)) {
      out.mode = "stream";
      serve_streaming(ch, hello, ctx, rng, stats);
    } else {
      out.mode = "precomputed";
      serve_precomputed(ch, hello, ctx.take_session(), ctx, rng, stats);
    }
    out.session_seconds = seconds_since(t_sess);
  } catch (const HandshakeError& e) {
    fail(SessionFailure::kHandshake, e);
  } catch (const TimeoutError& e) {
    // The idle deadline fired: the client went silent or stopped
    // draining, and the session is abandoned.
    fail(SessionFailure::kIdleTimeout, e);
  } catch (const PeerClosedError& e) {
    // Mid-session hangup — the signature a crashing or retrying client
    // leaves behind.
    fail(SessionFailure::kPeerClosed, e);
  } catch (const std::exception& e) {
    fail(SessionFailure::kOther, e);
  }
  return out;
}

void log_failure(const char* who, const ServedSession& s) {
  const char* what = "connection error";
  switch (s.failure) {
    case SessionFailure::kNone:
      return;
    case SessionFailure::kHandshake:
      what = "rejected client";
      break;
    case SessionFailure::kIdleTimeout:
      what = "idle timeout";
      break;
    case SessionFailure::kPeerClosed:
      what = "peer disconnected";
      break;
    case SessionFailure::kOther:
      break;
  }
  std::fprintf(stderr, "[%s] %s: %s\n", who, what, s.error.c_str());
}

}  // namespace maxel::net
