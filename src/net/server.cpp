#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

namespace maxel::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg),
      served_(cfg),
      listener_(cfg.port, cfg.bind_addr),
      pool_(cfg.precompute_cores, crypto::SystemRandom().next_block()),
      bank_(served_.circuit(), cfg.scheme, cfg.rounds_per_session) {
  cfg_.tcp = cfg.connection_tcp();
  if (!cfg_.fault_plan.empty())
    injector_ = std::make_shared<FaultInjector>(
        FaultPlan::parse(cfg_.fault_plan));
  ServeContext& ctx = served_.context();
  ctx.stream_queue_chunks = cfg.stream_queue_chunks;
  ctx.take_session = [this] { return take_session(); };
  // v3 sessions are garbled inline at serve time: the slim material is
  // ~40% of the v2 tables and the demo garbler inputs are known, so the
  // bank (sized for v2 sessions) is bypassed.
  ctx.take_v3 = [this] { return served_.garble_v3(rng_); };
  if (ctx.expect.allow_reusable) {
    // Garble once, up front: every reusable session this server ever
    // serves runs off this artifact.
    crypto::SystemRandom garble_rng;
    served_.install_reusable(garble_reusable(
        served_.circuit(), static_cast<std::uint32_t>(cfg.bits), garble_rng));
    ++stats_.reusable_garbles;
  }
  precompute_thread_ = std::thread([this] { precompute_loop(); });
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(bank_mu_);
  return stats_;
}

Server::~Server() {
  request_stop();
  if (precompute_thread_.joinable()) precompute_thread_.join();
}

void Server::precompute_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(bank_mu_);
      if (bank_.stats().sessions_ready >= cfg_.bank_low_watermark) {
        // Poll (rather than wait on a notify) so request_stop() stays a
        // plain atomic store — callable from a signal handler.
        bank_cv_.wait_for(lock, std::chrono::milliseconds(100));
        continue;
      }
    }
    // Garble outside the lock: one GC core per session, each on its own
    // deterministic per-core RNG stream.
    const std::size_t batch = std::max<std::size_t>(1, cfg_.bank_batch);
    std::vector<proto::PrecomputedSession> fresh(batch);
    pool_.parallel_for(batch, [&](std::size_t item, std::size_t core) {
      fresh[item] = served_.garble_session(pool_.core_rng(core));
    });
    {
      const std::lock_guard<std::mutex> lock(bank_mu_);
      for (auto& s : fresh) bank_.add_session(std::move(s));
      stats_.sessions_precomputed += batch;
    }
    bank_cv_.notify_all();
  }
}

proto::PrecomputedSession Server::take_session() {
  std::unique_lock<std::mutex> lock(bank_mu_);
  while (bank_.stats().sessions_ready == 0) {
    if (stop_.load(std::memory_order_relaxed))
      throw NetError("server stopping");
    bank_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
  return bank_.take_session();
}

void Server::serve() {
  const auto t0 = Clock::now();
  while (!stop_.load(std::memory_order_relaxed) &&
         (cfg_.max_sessions == 0 ||
          stats_.sessions_served < cfg_.max_sessions)) {
    std::unique_ptr<TcpChannel> accepted;
    try {
      accepted = listener_.accept(cfg_.accept_poll_ms, cfg_.tcp);
    } catch (const NetError&) {
      break;  // listener closed under us
    }
    if (!accepted) continue;  // poll timeout: recheck stop/max
    std::unique_ptr<proto::Channel> ch = std::move(accepted);
    if (injector_)
      ch = std::make_unique<FaultyChannel>(std::move(ch), injector_);
    const ServedSession s = serve_connection(*ch, served_.context(), rng_);
    std::uint64_t session_no;
    {
      const std::lock_guard<std::mutex> lock(bank_mu_);
      stats_.merge(s.stats);
      session_no = stats_.sessions_served;
    }
    if (!cfg_.verbose) continue;
    if (s.failure != SessionFailure::kNone) {
      log_failure("maxel_server", s);
      continue;
    }
    std::fprintf(stderr,
                 "[maxel_server] session %llu (%s): %zu rounds, %llu B out / "
                 "%llu B in, transfer %.3fs, ot %.3fs\n",
                 static_cast<unsigned long long>(session_no), s.mode,
                 cfg_.rounds_per_session,
                 static_cast<unsigned long long>(s.stats.bytes_sent),
                 static_cast<unsigned long long>(s.stats.bytes_received),
                 s.stats.transfer_seconds, s.stats.ot_seconds);
  }
  const std::lock_guard<std::mutex> lock(bank_mu_);
  stats_.total_seconds += seconds_since(t0);
}

}  // namespace maxel::net
