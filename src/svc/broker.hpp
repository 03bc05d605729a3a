// Concurrent session broker — the multi-tenant serving tier over the
// single-connection net::Server machinery.
//
// Threads (all owned by run()):
//   accept loop (caller's thread): polls the listener with a short
//     timeout so request_stop() is observed promptly, and either
//     enqueues the connection or — when the bounded admission queue is
//     full — sends the typed kServerBusy reject and closes, so an
//     overloaded broker degrades into fast, explicit rejections instead
//     of unbounded queueing or silent drops.
//   N workers: pop a connection and serve it through the shared
//     blocking dispatch (net::serve_connection, the same one the
//     sequential server runs), claiming v2/v3 sessions from the
//     disk-backed SessionSpool; the SpoolCore folds each result into
//     per-worker ServerStats and the shared MetricsRegistry.
//   producer (SpoolCore): keeps the spool between its low/high
//     watermarks, garbling batches on a core::GcCorePool — the software
//     stand-in for MAXelerator streaming fresh sessions up over PCIe.
//
// Stop discipline: request_stop() (async-signal-safe atomic store) ->
// the accept loop stops accepting, workers finish their in-flight
// sessions, queued-but-unstarted connections get the typed
// kShuttingDown reject, and run() joins everything before returning.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "net/fault.hpp"
#include "net/handshake.hpp"
#include "net/server.hpp"
#include "net/tcp_channel.hpp"
#include "svc/metrics.hpp"
#include "svc/spool_core.hpp"

namespace maxel::svc {

struct BrokerConfig : SpoolServeOptions {
  std::size_t workers = 4;            // serving threads
  std::size_t admission_queue = 8;    // accepted-but-unserved cap
  int accept_poll_ms = 100;           // stop-flag poll period
  // Stream-mode backpressure bound, in chunks; stream sessions garble
  // on the worker thread and never touch the spool.
  std::size_t stream_queue_chunks = 4;
  // Deterministic fault schedule (net/fault.hpp grammar) wrapped around
  // every served connection; empty = no injection. One injector spans
  // the broker's lifetime, so each event fires once across connections.
  std::string fault_plan;
};

class Broker {
 public:
  explicit Broker(const BrokerConfig& cfg);
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  // Accept/dispatch loop; spawns workers + producer, returns after a
  // graceful drain once request_stop() was called or max_sessions is
  // reached. Safe to run on its own thread.
  void run();

  // Async-signal-safe stop request.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] BrokerStats stats() const;
  [[nodiscard]] MetricsRegistry& metrics() { return core_.metrics(); }
  [[nodiscard]] const circuit::Circuit& circuit() const {
    return core_.served().circuit();
  }
  // OT-pool claims still outstanding (0 once no session is in flight).
  [[nodiscard]] std::uint64_t v3_outstanding_claims() const {
    return core_.served().registry().outstanding_claims();
  }

  // Load-generation hooks: an in-process load generator fabricates
  // client OT pools directly into the live registry and needs the
  // reusable artifact + handshake expectation to can its byte streams
  // (see evloop/loadgen.hpp).
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
  void worker_loop(std::size_t worker);
  // Sends a load-state reject without reading the hello, then closes.
  void reject_connection(net::TcpChannel& ch, net::RejectCode code);

  BrokerConfig cfg_;
  std::shared_ptr<net::FaultInjector> injector_;  // null when plan empty
  net::TcpListener listener_;
  SpoolCore core_;

  std::atomic<bool> stop_{false};

  // One OT randomness source per worker (index-stable across the run).
  std::vector<std::unique_ptr<crypto::SystemRandom>> worker_rngs_;

  // Bounded admission queue; workers block on queue_cv_.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<net::TcpChannel>> queue_;
  bool queue_closed_ = false;
};

}  // namespace maxel::svc
