// Garbler-side network server: the cloud host of Fig. 1.
//
// Serves garbling sessions to remote evaluator clients over TCP, one
// connection at a time: the accept loop hands each connection to the
// shared blocking dispatch (net::serve_connection in serve_core.hpp).
// Precomputed v2 sessions come from a RAM GarblingBank that a
// background thread keeps stocked, garbling in parallel on a
// core::GcCorePool (the software stand-in for the accelerator streaming
// tables up over PCIe while the host serves traffic); v3 sessions are
// garbled inline at serve time. Concurrent serving lives in the two
// brokers (svc::Broker worker pool, evloop::EvBroker shards), which
// run the same dispatch off a disk spool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "circuit/circuits.hpp"
#include "core/gc_core_pool.hpp"
#include "crypto/rng.hpp"
#include "net/fault.hpp"
#include "net/serve_core.hpp"
#include "net/tcp_channel.hpp"
#include "proto/precompute.hpp"

namespace maxel::net {

struct ServerConfig : ServeOptions {
  std::size_t bank_low_watermark = 2;  // refill when ready sessions < this
  std::size_t bank_batch = 2;          // sessions garbled per refill pass
  int accept_poll_ms = 200;            // stop-flag poll period of the accept loop
  // Stream-mode backpressure bound, in chunks. Per-session garbling RAM
  // is O(stream_chunk_rounds * stream_queue_chunks) tables instead of
  // O(rounds).
  std::size_t stream_queue_chunks = 4;
  // Deterministic fault schedule (fault.hpp grammar) wrapped around
  // every accepted connection; empty = no injection. One injector spans
  // the server's lifetime, so each event fires once across connections.
  std::string fault_plan;
};

class Server {
 public:
  explicit Server(const ServerConfig& cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Bound port (useful with cfg.port == 0).
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  // Accept/serve loop; returns when max_sessions is reached or
  // request_stop() was called. Safe to run on its own thread.
  void serve();

  // Async-signal-safe stop request (plain atomic store; serve() and the
  // precompute thread poll it).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  // Counter snapshot. The precompute thread keeps stocking the bank (and
  // bumping sessions_precomputed) until destruction, so this takes the
  // bank lock rather than handing out a reference.
  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const circuit::Circuit& circuit() const {
    return served_.circuit();
  }
  // OT-pool claims still outstanding (0 once no session is in flight).
  [[nodiscard]] std::uint64_t v3_outstanding_claims() const {
    return served_.registry().outstanding_claims();
  }

 private:
  void precompute_loop();
  proto::PrecomputedSession take_session();

  ServerConfig cfg_;
  std::shared_ptr<FaultInjector> injector_;  // null when fault_plan empty
  ServedCircuit served_;
  TcpListener listener_;
  crypto::SystemRandom rng_;  // online-phase OT and inline v3 randomness

  core::GcCorePool pool_;
  proto::GarblingBank bank_;
  mutable std::mutex bank_mu_;
  std::condition_variable bank_cv_;  // signals sessions added
  std::thread precompute_thread_;
  std::atomic<bool> stop_{false};

  ServerStats stats_;
};

}  // namespace maxel::net
