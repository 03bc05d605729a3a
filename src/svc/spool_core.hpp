// The spool-backed serving core both brokers share (the svc::Broker
// worker pool and the evloop::EvBroker shards): one SessionSpool kept
// between its watermarks by a producer thread garbling on a
// core::GcCorePool, the blocking spool takes with their empty-spool
// wait, the reusable artifact loaded from the spool or garbled once per
// key, per-session metric accounting, and the BrokerStats snapshot.
// A front owns one SpoolCore and adds only its concurrency model.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/gc_core_pool.hpp"
#include "net/serve_core.hpp"
#include "svc/metrics.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {

// Config fields both brokers share on top of net::ServeOptions.
struct SpoolServeOptions : net::ServeOptions {
  std::string spool_dir;                 // required
  std::size_t spool_low_watermark = 2;   // refill when ready < this
  std::size_t spool_high_watermark = 8;  // refill up to this
  std::size_t ram_cache_sessions = 4;
};

struct BrokerStats {
  net::ServerStats server;  // merged over workers/shards (+ run() wall time)
  SpoolStats spool;
  std::uint64_t admission_rejects = 0;  // kServerBusy sent
  std::uint64_t drain_rejects = 0;      // kShuttingDown sent
  std::size_t queue_depth = 0;          // at snapshot time

  [[nodiscard]] std::string to_json() const;
};

class SpoolCore {
 public:
  // `slots` worker threads or shards record into per-slot stats; `tag`
  // and `slot_noun` name them in log lines ("[broker] worker 2 ...").
  // Loads or garbles the reusable artifact when the mode is enabled.
  SpoolCore(const SpoolServeOptions& cfg, std::size_t slots, const char* tag,
            const char* slot_noun);
  SpoolCore(const SpoolCore&) = delete;
  SpoolCore& operator=(const SpoolCore&) = delete;

  [[nodiscard]] net::ServedCircuit& served() { return served_; }
  [[nodiscard]] const net::ServedCircuit& served() const { return served_; }
  [[nodiscard]] const net::ServeContext& context() const {
    return served_.context();
  }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] std::size_t slots() const { return slot_stats_.size(); }

  // Runs `front` while the producer keeps the spool stocked. The
  // producer outlives the front, so an in-flight session that still
  // needs a refill during drain gets one. Adds the wall time to stats.
  void run(const std::function<void()>& front);

  // Claim one session from the spool, waiting out an empty spool in
  // 20 ms steps; throw NetError once the producer has stopped.
  proto::PrecomputedSession take_session_blocking();
  proto::PrecomputedSessionV3 take_v3_blocking();

  // Folds one finished connection into slot's stats and the metrics and
  // logs it when verbose. True once max_sessions have been served.
  bool record(std::size_t slot, const net::ServedSession& s);
  void count_admission_reject();
  void count_drain_reject();

  [[nodiscard]] BrokerStats stats() const;

 private:
  void producer_loop();
  // Loads the artifact for this (fingerprint, bits) key from the spool —
  // or garbles it once and persists it. Corrupt or unparseable blobs are
  // destroyed and replaced by a fresh garbling, never served.
  void ensure_reusable();

  SpoolServeOptions cfg_;
  const char* tag_;
  const char* slot_noun_;
  net::ServedCircuit served_;
  SessionSpool spool_;
  core::GcCorePool pool_;
  MetricsRegistry metrics_;

  std::string reusable_key_;
  std::uint64_t reusable_garbles_ = 0;  // 0 when the spool supplied it

  std::atomic<bool> producer_stop_{false};
  std::atomic<std::uint64_t> sessions_served_total_{0};
  std::atomic<std::uint64_t> precomputed_{0};

  // Spool refill signaling (producer wakes takers waiting on an empty
  // spool; takers wake the producer after draining it).
  std::mutex spool_mu_;
  std::condition_variable spool_cv_;

  mutable std::mutex stats_mu_;
  std::vector<net::ServerStats> slot_stats_;
  std::uint64_t admission_rejects_ = 0;
  std::uint64_t drain_rejects_ = 0;
  double wall_seconds_ = 0;
};

}  // namespace maxel::svc
