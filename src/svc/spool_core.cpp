#include "svc/spool_core.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "crypto/rng.hpp"
#include "net/error.hpp"
#include "proto/reusable_io.hpp"

namespace maxel::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::string BrokerStats::to_json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"broker\",\"admission_rejects\":%llu,"
      "\"drain_rejects\":%llu,\"queue_depth\":%zu,"
      "\"spool\":{\"ready\":%zu,\"spooled\":%llu,\"claimed\":%llu,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,\"purged_on_open\":%llu,"
      "\"bytes_on_disk\":%llu,\"ready_v3\":%zu,\"v3_spooled\":%llu,"
      "\"v3_claimed\":%llu,\"v3_lineage_discarded\":%llu,"
      "\"reusable_ready\":%zu,\"reusable_spooled\":%llu,"
      "\"reusable_evaluations\":%llu,\"reusable_corrupt_discarded\":%llu},"
      "\"server\":",
      static_cast<unsigned long long>(admission_rejects),
      static_cast<unsigned long long>(drain_rejects), queue_depth,
      spool.sessions_ready,
      static_cast<unsigned long long>(spool.sessions_spooled),
      static_cast<unsigned long long>(spool.sessions_claimed),
      static_cast<unsigned long long>(spool.cache_hits),
      static_cast<unsigned long long>(spool.cache_misses),
      static_cast<unsigned long long>(spool.purged_on_open),
      static_cast<unsigned long long>(spool.bytes_on_disk),
      spool.sessions_ready_v3,
      static_cast<unsigned long long>(spool.v3_spooled),
      static_cast<unsigned long long>(spool.v3_claimed),
      static_cast<unsigned long long>(spool.v3_lineage_discarded),
      spool.reusable_ready,
      static_cast<unsigned long long>(spool.reusable_spooled),
      static_cast<unsigned long long>(spool.reusable_evaluations),
      static_cast<unsigned long long>(spool.reusable_corrupt_discarded));
  return std::string(buf) + server.to_json() + "}";
}

SpoolCore::SpoolCore(const SpoolServeOptions& cfg, std::size_t slots,
                     const char* tag, const char* slot_noun)
    : cfg_(cfg),
      tag_(tag),
      slot_noun_(slot_noun),
      served_(cfg),
      spool_(SpoolConfig{cfg.spool_dir, cfg.ram_cache_sessions, true}),
      pool_(cfg.precompute_cores, crypto::SystemRandom().next_block()),
      slot_stats_(std::max<std::size_t>(1, slots)) {
  if (cfg_.spool_high_watermark < cfg_.spool_low_watermark)
    cfg_.spool_high_watermark = cfg_.spool_low_watermark;
  net::ServeContext& ctx = served_.context();
  ctx.take_session = [this] { return take_session_blocking(); };
  ctx.take_v3 = [this] { return take_v3_blocking(); };
  if (ctx.expect.allow_reusable) ensure_reusable();
}

void SpoolCore::ensure_reusable() {
  const net::ServerExpectation& ex = served_.context().expect;
  reusable_key_ = reusable_artifact_key(ex.circuit_hash, cfg_.bits);
  if (auto bytes = spool_.fetch_reusable(reusable_key_)) {
    try {
      gc::ReusableCircuit rc =
          proto::parse_reusable(bytes->data(), bytes->size());
      if (rc.view.fingerprint == ex.circuit_hash &&
          rc.view.bit_width == cfg_.bits) {
        served_.install_reusable(std::move(rc));
        metrics_.counter("reusable_artifact_loaded").inc();
        if (cfg_.verbose)
          std::fprintf(stderr,
                       "[%s] reusable artifact %s reloaded from spool "
                       "(%llu evaluations served so far)\n",
                       tag_, reusable_key_.c_str(),
                       static_cast<unsigned long long>(
                           spool_.stats().reusable_evaluations));
        return;
      }
      // Same key, different contents (should not happen; the key pins
      // the fingerprint) — treat like corruption and re-garble.
    } catch (const std::exception&) {
      // Checksum passed but the blob no longer parses: fall through to
      // a fresh garbling; put_reusable below replaces the bad file.
    }
  }
  crypto::SystemRandom garble_rng;
  gc::ReusableCircuit rc = net::garble_reusable(
      served_.circuit(), static_cast<std::uint32_t>(cfg_.bits), garble_rng);
  spool_.put_reusable(reusable_key_, proto::serialize_reusable(rc));
  served_.install_reusable(std::move(rc));
  ++reusable_garbles_;
  metrics_.counter("reusable_garbles").inc();
  if (cfg_.verbose)
    std::fprintf(stderr, "[%s] garbled reusable artifact %s into spool\n",
                 tag_, reusable_key_.c_str());
}

void SpoolCore::run(const std::function<void()>& front) {
  const auto t0 = Clock::now();
  producer_stop_.store(false, std::memory_order_relaxed);
  std::thread producer([this] { producer_loop(); });
  front();
  producer_stop_.store(true, std::memory_order_relaxed);
  spool_cv_.notify_all();
  producer.join();
  const std::lock_guard<std::mutex> lock(stats_mu_);
  wall_seconds_ += seconds_since(t0);
}

proto::PrecomputedSession SpoolCore::take_session_blocking() {
  for (;;) {
    if (auto s = spool_.take()) {
      metrics_.gauge("spool_ready").set(
          static_cast<std::int64_t>(spool_.ready()));
      spool_cv_.notify_all();  // the producer may want to refill now
      return std::move(*s);
    }
    if (producer_stop_.load(std::memory_order_relaxed))
      throw net::NetError(std::string(tag_) + " stopping: spool drained");
    metrics_.counter("spool_empty_waits").inc();
    std::unique_lock<std::mutex> lock(spool_mu_);
    spool_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

proto::PrecomputedSessionV3 SpoolCore::take_v3_blocking() {
  for (;;) {
    if (auto s = spool_.take_v3(served_.registry().lineage())) {
      metrics_.gauge("spool_ready_v3").set(
          static_cast<std::int64_t>(spool_.ready_v3()));
      spool_cv_.notify_all();  // the producer may want to refill now
      return std::move(*s);
    }
    if (producer_stop_.load(std::memory_order_relaxed))
      throw net::NetError(std::string(tag_) + " stopping: spool drained");
    metrics_.counter("spool_empty_waits").inc();
    std::unique_lock<std::mutex> lock(spool_mu_);
    spool_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void SpoolCore::producer_loop() {
  const std::size_t low = cfg_.spool_low_watermark;
  const std::size_t high = cfg_.spool_high_watermark;
  while (!producer_stop_.load(std::memory_order_relaxed)) {
    const std::size_t ready = spool_.ready();
    // When the v3 lane is disabled, report it as full so only the v2
    // watermark drives refills.
    const std::size_t ready_v3 = cfg_.allow_v3 ? spool_.ready_v3() : high;
    if (ready >= low && ready_v3 >= low) {
      std::unique_lock<std::mutex> lock(spool_mu_);
      spool_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    if (ready < low) {
      const std::size_t batch = high - ready;
      std::vector<proto::PrecomputedSession> fresh(batch);
      pool_.parallel_for(batch, [&](std::size_t item, std::size_t core) {
        fresh[item] = served_.garble_session(pool_.core_rng(core));
      });
      for (auto& s : fresh) spool_.put(std::move(s));
      precomputed_.fetch_add(batch, std::memory_order_relaxed);
      metrics_.gauge("spool_ready").set(
          static_cast<std::int64_t>(spool_.ready()));
    }
    if (ready_v3 < low) {
      // v3 sessions are bound to the registry's garbling delta; the
      // lineage recorded by put_v3 lets a future broker on this spool
      // dir burn them instead of serving under the wrong correlation.
      const std::size_t batch = high - ready_v3;
      std::vector<proto::PrecomputedSessionV3> fresh(batch);
      pool_.parallel_for(batch, [&](std::size_t item, std::size_t core) {
        fresh[item] = served_.garble_v3(pool_.core_rng(core));
      });
      for (auto& s : fresh) spool_.put_v3(s);
      precomputed_.fetch_add(batch, std::memory_order_relaxed);
      metrics_.gauge("spool_ready_v3").set(
          static_cast<std::int64_t>(spool_.ready_v3()));
    }
    spool_cv_.notify_all();
  }
}

bool SpoolCore::record(std::size_t slot, const net::ServedSession& s) {
  const net::ServerStats& st = s.stats;
  bool reached_max = false;
  switch (s.failure) {
    case net::SessionFailure::kNone: {
      metrics_.histogram("handshake_seconds").observe(st.handshake_seconds);
      metrics_.histogram("transfer_seconds").observe(st.transfer_seconds);
      metrics_.histogram("ot_seconds").observe(st.ot_seconds);
      metrics_.histogram("session_seconds").observe(s.session_seconds);
      metrics_.counter("sessions_served").inc();
      metrics_.counter("rounds_served").inc(st.rounds_served);
      if (st.stream_sessions_served != 0) {
        metrics_.counter("stream_sessions_served").inc();
        metrics_.histogram("first_table_seconds")
            .observe(st.first_table_seconds);
      }
      if (st.v3_sessions_served != 0)
        metrics_.counter("v3_sessions_served").inc();
      if (st.reusable_sessions_served != 0) {
        // The persisted evaluation counter is what `maxelctl spool`
        // reports per artifact.
        metrics_.counter("reusable_sessions_served").inc();
        spool_.add_reusable_evaluations(reusable_key_,
                                        cfg_.rounds_per_session);
      }
      // Service-wide high-water mark of garbled tables resident for any
      // one session (whole session precomputed, bounded queue streamed).
      auto& peak = metrics_.gauge("peak_resident_tables");
      if (static_cast<std::int64_t>(st.peak_resident_tables) > peak.value())
        peak.set(static_cast<std::int64_t>(st.peak_resident_tables));
      // Per-direction wire accounting, split by session mode so a fleet
      // can read the v2->v3 bandwidth win straight off `maxelctl stats`.
      metrics_.counter(std::string("net_tx_bytes_") + s.mode)
          .inc(st.bytes_sent);
      metrics_.counter(std::string("net_rx_bytes_") + s.mode)
          .inc(st.bytes_received);
      const std::uint64_t total =
          sessions_served_total_.fetch_add(1, std::memory_order_relaxed) + 1;
      reached_max = cfg_.max_sessions != 0 && total >= cfg_.max_sessions;
      if (cfg_.verbose)
        std::fprintf(stderr,
                     "[%s] %s %zu served session %llu (%s): %zu rounds, "
                     "%llu B out, transfer %.3fs, ot %.3fs\n",
                     tag_, slot_noun_, slot,
                     static_cast<unsigned long long>(total), s.mode,
                     cfg_.rounds_per_session,
                     static_cast<unsigned long long>(st.bytes_sent),
                     st.transfer_seconds, st.ot_seconds);
      break;
    }
    case net::SessionFailure::kHandshake:
      metrics_.counter("handshakes_rejected").inc();
      break;
    case net::SessionFailure::kIdleTimeout:
      metrics_.counter("idle_timeouts").inc();
      metrics_.counter("connection_errors").inc();
      break;
    case net::SessionFailure::kPeerClosed:
      // Tracked apart from protocol errors so fleets can tell client
      // churn from breakage.
      metrics_.counter("peer_disconnects").inc();
      metrics_.counter("connection_errors").inc();
      break;
    case net::SessionFailure::kOther:
      metrics_.counter("connection_errors").inc();
      break;
  }
  if (cfg_.verbose) net::log_failure(tag_, s);
  const std::lock_guard<std::mutex> lock(stats_mu_);
  slot_stats_[slot].merge(st);
  return reached_max;
}

void SpoolCore::count_admission_reject() {
  metrics_.counter("admission_rejects").inc();
  const std::lock_guard<std::mutex> lock(stats_mu_);
  ++admission_rejects_;
}

void SpoolCore::count_drain_reject() {
  metrics_.counter("drain_rejects").inc();
  const std::lock_guard<std::mutex> lock(stats_mu_);
  ++drain_rejects_;
}

BrokerStats SpoolCore::stats() const {
  BrokerStats st;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& ss : slot_stats_) st.server.merge(ss);
    st.admission_rejects = admission_rejects_;
    st.drain_rejects = drain_rejects_;
    st.server.total_seconds = wall_seconds_;
  }
  st.server.reusable_garbles += reusable_garbles_;
  st.server.sessions_precomputed =
      precomputed_.load(std::memory_order_relaxed);
  st.spool = spool_.stats();
  return st;
}

}  // namespace maxel::svc
