// Protocol-v3 service plumbing shared by net::Server, svc::Broker, the
// client, and the loopback benches: the per-client OT-pool registry on
// the garbler side, and the pool-reconciliation + session flows both
// sides run after a v3 handshake is accepted.
//
// Cross-session amortization contract:
//   * The registry keys long-lived CorrelatedPoolSender instances by the
//     client identity from the hello extension. One garbling delta spans
//     the registry, so any spooled or inline-garbled v3 session can be
//     served from any pool in it (checked via pool lineage).
//   * A connection is served from the existing pool iff the client
//     presents the ticket issued with it AND its materialized count
//     matches the server's — anything else (first contact, lost state,
//     desync from a death mid-extend) falls back to a fresh pool with a
//     new base OT. Fallback is always safe, never wrong answers.
//   * Claims are handed out under the per-client io mutex and every
//     claim ends in consume (success) or discard (any throw), so a
//     retried or resumed session can never see an OT index twice.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/reusable.hpp"
#include "gc/v3.hpp"
#include "net/handshake.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/v3_session.hpp"

namespace maxel::net {

struct ServerStats;  // serve_core.hpp

// Garbler-side registry of per-client correlated-OT pools. Thread-safe:
// the broker's workers serve concurrent sessions of the same client
// against one entry (wire phases serialized by the entry's io mutex,
// pad reads lock-free per the pool's own contract).
class V3PoolRegistry {
 public:
  explicit V3PoolRegistry(const crypto::Block& seed);

  struct Entry {
    std::mutex io_mu;  // serializes setup/extend/claim wire phases
    std::shared_ptr<ot::CorrelatedPoolSender> pool;  // null before base OT
    crypto::Block cookie{};
    // Cooperative gate for single-threaded event-loop serving (evloop):
    // a shard thread cannot block on io_mu when the holder is another
    // session on the same thread, so evloop sessions serialize their
    // setup/extend/claim phases on this test-and-set instead, retrying
    // off a timer on contention. Blocking serve paths ignore it.
    std::atomic<bool> ev_gate{false};
  };

  // Entry for a client identity, created on first sight.
  std::shared_ptr<Entry> entry_for(const crypto::Block& client_id);

  [[nodiscard]] const crypto::Block& delta() const { return delta_; }
  [[nodiscard]] std::uint64_t lineage() const { return lineage_; }
  crypto::Block next_block();
  std::uint64_t next_pool_id();
  [[nodiscard]] std::size_t clients() const;

  // Claims currently outstanding across every pool — the "no stuck
  // claims" invariant: once no session is in flight, this must be 0
  // (every claim ended in consume or discard, even under chaos).
  [[nodiscard]] std::uint64_t outstanding_claims() const;

 private:
  crypto::Block delta_;
  std::uint64_t lineage_ = 0;
  mutable std::mutex mu_;
  crypto::SystemRandom rng_;
  std::uint64_t next_pool_id_ = 1;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::shared_ptr<Entry>>
      entries_;
};

// A connection's pool and claim window, decided once its client setup
// record is in. The entry's pool is resumed only on full agreement: the
// client presents the ticket issued with it AND its materialized count
// matches the server's. Anything else — first contact, a missing or
// stale ticket, a desync from a death mid-extend — gets a fresh pool
// and base OT; the fallback costs one setup, never correctness.
struct PoolGrant {
  std::shared_ptr<ot::CorrelatedPoolSender> pool;
  crypto::Block cookie{};
  bool fresh = false;        // new pool: base OT runs before any extend
  std::uint64_t extend = 0;  // OT indices to materialize before the claim
  std::uint64_t start = 0;   // the claim's first index
};

// Stamps a grant into a server setup record (V3ServerSetup or
// ReusableServerSetup) for a claim of `need` indices.
template <class Setup>
void stamp_setup(Setup& ss, const PoolGrant& g, std::uint64_t need) {
  ss.fresh = g.fresh;
  ss.pool_id = g.pool->pool_id();
  ss.cookie = g.cookie;
  ss.start_index = g.start;
  ss.claim_count = need;
  ss.extend_count = g.extend;
}

// Call with entry.io_mu held. All claims on a pool run serialized per
// entry, so the next claim start is exactly the total ever claimed.
PoolGrant grant_pool(V3PoolRegistry& reg, V3PoolRegistry::Entry& entry,
                     const HelloExtV3& ext, std::uint64_t client_extended,
                     std::uint64_t need);

// Blocking rest of the pool set-up once the server setup record is
// sent: base OT on a fresh pool, extension, the claim, and the ticket
// (left unflushed). Call with entry.io_mu held.
ot::PoolClaim open_claim(proto::Channel& ch, V3PoolRegistry& reg,
                         const PoolGrant& g, const HelloExtV3& ext,
                         std::uint64_t need);

struct V3ServeOutcome {
  bool fresh_pool = false;
  std::uint64_t extended = 0;    // OT indices added on this connection
  std::uint64_t setup_bytes = 0; // wire bytes before the first round frame
};

// Serves one v3 session after an accepted v3 handshake: client-setup
// recv, fresh-vs-resume decision, base OT + pool extension as needed,
// ticket issue, then the round flow of proto::serve_v3_rounds. The
// session must be garbled under the registry delta. Updates the byte /
// round / v3 counters in `stats` (pass a fresh-per-connection channel).
V3ServeOutcome serve_v3_session(proto::Channel& ch, V3PoolRegistry& reg,
                                const HelloExtV3& ext,
                                const circuit::Circuit& circ,
                                const proto::PrecomputedSessionV3& session,
                                ServerStats& stats);

// Client-side identity + pool state. Outlives connections, retries, and
// run_client calls: share one instance across sessions to amortize the
// base OT down to (almost always) zero setup per session.
struct V3ClientState {
  crypto::Block client_id{};
  ot::CorrelatedPoolReceiver pool;
  std::optional<proto::ResumptionTicket> ticket;
  // Consecutive v3 handshakes that died to a bare peer close (no typed
  // verdict). One is ambiguous — a transient fault, or a v2-only server
  // whose version-mismatch reject was destroyed by its own TCP reset
  // (it closes with the v3 extension frame unread). Two in a row reads
  // as deterministic, and the client falls back to a v2 hello. Reset by
  // any handshake that reaches a verdict.
  int handshake_close_streak = 0;
  // Reusable-mode artifact cache: the view received (and SHA-verified)
  // on a previous reusable session. Offered back by hash in the setup
  // record so repeat sessions skip the artifact transfer entirely.
  std::optional<gc::ReusableView> reusable_view;
  std::array<std::uint8_t, 32> reusable_sha{};
};

std::shared_ptr<V3ClientState> make_v3_client_state(crypto::RandomSource& rng);

struct V3EvalOutcome {
  std::vector<bool> decoded;     // final-round outputs
  bool fresh_pool = false;
  std::uint64_t setup_bytes = 0; // wire bytes before the first round frame
};

// Client half of serve_v3_session, run after client_handshake_v3 was
// accepted. evaluator_bits[r] holds round r's true input bits.
V3EvalOutcome eval_v3_session(
    proto::Channel& ch, const circuit::Circuit& circ,
    const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& evaluator_bits, V3ClientState& st,
    crypto::RandomSource& rng);

}  // namespace maxel::net
