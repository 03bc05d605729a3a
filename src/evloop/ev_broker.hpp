// Sharded event-loop front: N single-threaded shards, each running an
// EvLoop with its own SO_REUSEPORT listener, serving every session mode
// through non-blocking EvSession machines instead of a
// thread-per-connection worker pool. 10k concurrent sessions cost 10k
// fds and state machines, not 10k stacks.
//
// Shared state across shards lives in one svc::SpoolCore, the same core
// the blocking svc::Broker runs on: one SessionSpool, one
// V3PoolRegistry (one garbling delta), one read-only reusable artifact,
// one MetricsRegistry, one producer thread keeping the spool between
// its watermarks. Per-client pool phases are
// serialized by Entry::ev_gate (see evloop/session.hpp), so two shards
// serving the same client never interleave wire phases.
//
// Accept discipline (per shard): the listener is registered
// edge-triggered and every readiness event drains accept4() until
// EAGAIN. EMFILE/ENFILE does not abort the shard — a reserved spare fd
// is closed to admit one more connection, which gets the typed
// kServerBusy reject and an immediate close, then the spare is
// reacquired (counted in admission_rejects).
//
// Idle eviction: one timer wheel per shard, one armed timer per
// connection, lazily re-armed against last-activity — 10k idle sessions
// cost a wheel scan per tick, not 10k poll timeouts. An eviction counts
// idle_timeouts + connection_errors, exactly like the blocking broker's
// TimeoutError path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "net/serve_core.hpp"
#include "net/tcp_channel.hpp"
#include "svc/metrics.hpp"
#include "svc/spool_core.hpp"

#include "evloop/event_loop.hpp"
#include "evloop/session.hpp"

namespace maxel::evloop {

// A file descriptor held in reserve so an EMFILE-saturated accept loop
// can always free one slot, accept the waiting connection, and tell it
// "busy" instead of leaving it queued forever (or aborting). Exported
// for unit tests.
class SpareFd {
 public:
  SpareFd();
  ~SpareFd();
  SpareFd(const SpareFd&) = delete;
  SpareFd& operator=(const SpareFd&) = delete;

  [[nodiscard]] bool held() const { return fd_ >= 0; }
  void release();    // close the spare, freeing one fd slot
  void reacquire();  // best effort; held() may stay false under pressure

 private:
  int fd_ = -1;
};

struct EvBrokerConfig : svc::SpoolServeOptions {
  EvBrokerConfig() { verbose = false; }
  std::size_t shards = 2;     // event-loop threads (>= 1)
  int listen_backlog = 1024;  // deep enough for 10k-client connect bursts
};

class EvBroker {
 public:
  explicit EvBroker(const EvBrokerConfig& cfg);
  ~EvBroker();
  EvBroker(const EvBroker&) = delete;
  EvBroker& operator=(const EvBroker&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Spawns the shard threads + producer; returns after a graceful drain
  // (request_stop() or max_sessions): listeners stop accepting,
  // in-flight sessions run to completion (bounded by idle eviction),
  // then the loops exit. Safe to run on its own thread.
  void run();
  void request_stop();

  [[nodiscard]] svc::BrokerStats stats() const { return core_.stats(); }
  [[nodiscard]] svc::MetricsRegistry& metrics() { return core_.metrics(); }
  [[nodiscard]] const circuit::Circuit& circuit() const {
    return core_.served().circuit();
  }
  [[nodiscard]] std::uint64_t v3_outstanding_claims() const {
    return core_.served().registry().outstanding_claims();
  }

  // Load-generation hooks: the in-process loadgen fabricates client OT
  // pools directly into the live registry and cans byte streams against
  // the reusable artifact + expectation (see evloop/loadgen.hpp).
  [[nodiscard]] net::V3PoolRegistry& v3_registry() {
    return core_.served().registry();
  }
  [[nodiscard]] const net::ReusableServeContext* reusable_context() const {
    return core_.context().reusable;
  }
  [[nodiscard]] const net::ServerExpectation& expectation() const {
    return core_.context().expect;
  }

 private:
  struct Shard;  // defined in ev_broker.cpp (EvLoop + conns + listener)
  struct EvConn;

  void shard_loop(Shard& sh);
  void accept_drain(Shard& sh);
  void add_conn(Shard& sh, int cfd);
  void on_io(Shard& sh, EvConn* c, bool r, bool w, bool err);
  void service_conn(Shard& sh, EvConn* c);
  bool write_drain(Shard& sh, EvConn& c);
  void arm_idle(Shard& sh, EvConn* c);
  void finish_conn(Shard& sh, EvConn* c, bool evicted_idle);
  void record_result(Shard& sh, EvConn& c, bool evicted_idle);
  // EMFILE path; false when even the freed spare couldn't admit one.
  bool busy_reject(Shard& sh);
  void begin_drain(Shard& sh);
  [[nodiscard]] std::uint64_t idle_deadline_ms() const;

  EvBrokerConfig cfg_;
  svc::SpoolCore core_;
  std::vector<std::uint8_t> busy_reject_bytes_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> open_conns_{0};

  // Hot-path gauges, resolved once (registry lookup takes a mutex).
  svc::Gauge* g_open_fds_ = nullptr;
  svc::Gauge* g_ready_depth_ = nullptr;
};

}  // namespace maxel::evloop
