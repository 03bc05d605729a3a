#include "net/v3_service.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/error.hpp"
#include "net/serve_core.hpp"
#include "proto/v3_records.hpp"

namespace maxel::net {

V3PoolRegistry::V3PoolRegistry(const crypto::Block& seed) : rng_(seed) {
  delta_ = rng_.next_block();
  delta_.lo |= 1u;
  lineage_ = proto::delta_lineage(delta_);
}

std::shared_ptr<V3PoolRegistry::Entry> V3PoolRegistry::entry_for(
    const crypto::Block& client_id) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = entries_[{client_id.lo, client_id.hi}];
  if (!slot) slot = std::make_shared<Entry>();
  return slot;
}

crypto::Block V3PoolRegistry::next_block() {
  const std::lock_guard<std::mutex> lock(mu_);
  return rng_.next_block();
}

std::uint64_t V3PoolRegistry::next_pool_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_pool_id_++;
}

std::size_t V3PoolRegistry::clients() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t V3PoolRegistry::outstanding_claims() const {
  // Snapshot the entries under the registry lock, then visit each under
  // its own io mutex (the serve path locks io_mu before mu_, so holding
  // both here in the other order would invert).
  std::vector<std::shared_ptr<Entry>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) snapshot.push_back(entry);
  }
  std::uint64_t total = 0;
  for (const auto& entry : snapshot) {
    const std::lock_guard<std::mutex> io(entry->io_mu);
    if (entry->pool) total += entry->pool->stats().claimed;
  }
  return total;
}

PoolGrant grant_pool(V3PoolRegistry& reg, V3PoolRegistry::Entry& entry,
                     const HelloExtV3& ext, std::uint64_t client_extended,
                     std::uint64_t need) {
  PoolGrant g;
  const bool resume = entry.pool && ext.has_ticket &&
                      ext.ticket.pool_id == entry.pool->pool_id() &&
                      ext.ticket.cookie == entry.cookie &&
                      ext.ticket.client_id == ext.client_id &&
                      client_extended == entry.pool->extended();
  if (!resume) {
    entry.pool = std::make_shared<ot::CorrelatedPoolSender>(
        reg.delta(), reg.next_pool_id());
    entry.cookie = reg.next_block();
    g.fresh = true;
  }
  g.pool = entry.pool;
  g.cookie = entry.cookie;

  const ot::PoolStats pst = g.pool->stats();
  if (pst.available() < need) {
    const std::uint64_t deficit = need - pst.available();
    g.extend = ((deficit + ot::kPoolExtendBatch - 1) / ot::kPoolExtendBatch) *
               ot::kPoolExtendBatch;
    g.extend = std::min<std::uint64_t>(
        g.extend, static_cast<std::uint64_t>(ot::kMaxPoolExtend));
  }
  g.start = pst.claimed + pst.consumed + pst.discarded;
  return g;
}

ot::PoolClaim open_claim(proto::Channel& ch, V3PoolRegistry& reg,
                         const PoolGrant& g, const HelloExtV3& ext,
                         std::uint64_t need) {
  if (g.fresh) {
    crypto::SystemRandom setup_rng(reg.next_block());
    g.pool->base_setup_step2(ch, setup_rng);
    g.pool->base_setup_step4();
  }
  if (g.extend > 0) g.pool->extend(ch, g.extend);
  const ot::PoolClaim claim = g.pool->claim(need);
  if (claim.start != g.start)
    throw std::logic_error("v3 pool: claim raced despite io_mu");
  proto::send_ticket(ch, proto::ResumptionTicket{g.pool->pool_id(),
                                                 ext.client_id, g.cookie});
  return claim;
}

V3ServeOutcome serve_v3_session(proto::Channel& ch, V3PoolRegistry& reg,
                                const HelloExtV3& ext,
                                const circuit::Circuit& circ,
                                const proto::PrecomputedSessionV3& session,
                                ServerStats& stats) {
  const std::size_t n_in = circ.evaluator_inputs.size();
  const std::uint64_t need = session.round_count() * n_in;
  if (need > ot::kMaxPoolExtend)
    throw std::invalid_argument("serve_v3_session: session too large");
  if (session.pool_lineage != reg.lineage())
    throw std::logic_error(
        "serve_v3_session: session garbled under a foreign delta");

  const auto entry = reg.entry_for(ext.client_id);
  V3ServeOutcome out;
  ot::PoolClaim claim{};
  std::shared_ptr<ot::CorrelatedPoolSender> pool;
  {
    const std::lock_guard<std::mutex> io(entry->io_mu);
    const proto::V3ClientSetup cs = proto::recv_client_setup(ch);
    const PoolGrant g = grant_pool(reg, *entry, ext, cs.extended, need);
    pool = g.pool;
    out.fresh_pool = g.fresh;
    out.extended = g.extend;

    proto::V3ServerSetup ss;
    stamp_setup(ss, g, need);
    proto::send_server_setup(ch, ss);
    ch.flush();
    claim = open_claim(ch, reg, g, ext, need);
    ch.flush();
  }
  out.setup_bytes = ch.bytes_sent() + ch.bytes_received();

  try {
    proto::serve_v3_rounds(ch, circ, session, *pool, claim);
    ch.flush();
  } catch (...) {
    // Burn the claim: these indices must never back another session,
    // and the pool must not be left with a stuck outstanding claim.
    pool->discard(claim);
    throw;
  }
  pool->consume(claim);

  stats.bytes_sent += ch.bytes_sent();
  stats.bytes_received += ch.bytes_received();
  stats.rounds_served += session.round_count();
  ++stats.sessions_served;
  ++stats.v3_sessions_served;
  if (out.fresh_pool) ++stats.v3_fresh_pools;
  stats.v3_ot_extended += out.extended;
  return out;
}

std::shared_ptr<V3ClientState> make_v3_client_state(
    crypto::RandomSource& rng) {
  auto st = std::make_shared<V3ClientState>();
  st->client_id = rng.next_block();
  return st;
}

V3EvalOutcome eval_v3_session(
    proto::Channel& ch, const circuit::Circuit& circ,
    const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& evaluator_bits, V3ClientState& st,
    crypto::RandomSource& rng) {
  const std::size_t n_in = circ.evaluator_inputs.size();
  proto::send_client_setup(
      ch, proto::V3ClientSetup{st.pool.extended(), st.pool.watermark()});
  ch.flush();
  const proto::V3ServerSetup ss = proto::recv_server_setup(ch);

  V3EvalOutcome out;
  if (ss.fresh) {
    st.pool.reset();
    st.ticket.reset();
    st.pool.base_setup_step1(ch, rng);
    st.pool.base_setup_step3();
    out.fresh_pool = true;
  }
  if (ss.extend_count > 0) st.pool.extend(ch, ss.extend_count);
  const proto::ResumptionTicket ticket = proto::recv_ticket(ch);
  if (ticket.client_id != st.client_id)
    throw NetError("v3 setup: ticket issued for a different client");
  if (ticket.pool_id != ss.pool_id)
    throw NetError("v3 setup: ticket names a different pool");
  if (ss.claim_count != evaluator_bits.size() * n_in)
    throw NetError("v3 setup: claim does not cover the session rounds");
  // Watermark check: throws on any replayed index before we evaluate.
  st.pool.mark_consumed(ss.start_index, ss.claim_count);
  st.ticket = ticket;
  out.setup_bytes = ch.bytes_sent() + ch.bytes_received();

  out.decoded = proto::eval_v3_rounds(ch, circ, an, evaluator_bits, st.pool,
                                      ss.start_index);
  return out;
}

}  // namespace maxel::net
