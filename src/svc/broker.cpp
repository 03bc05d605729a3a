#include "svc/broker.hpp"


#include "crypto/rng.hpp"

namespace maxel::svc {

namespace {

// How long a rejected connection waits for the client's EOF before
// closing (see reject_connection). A well-behaved client hangs up
// within a round trip of reading the verdict, so the cap only binds
// against stuck peers.
constexpr int kRejectLingerMs = 500;

}  // namespace

Broker::Broker(const BrokerConfig& cfg)
    : cfg_(cfg),
      listener_(cfg.port, cfg.bind_addr),
      core_(cfg, cfg.workers, "broker", "worker") {
  cfg_.workers = core_.slots();
  cfg_.tcp = cfg.connection_tcp();
  if (!cfg_.fault_plan.empty())
    injector_ = std::make_shared<net::FaultInjector>(
        net::FaultPlan::parse(cfg_.fault_plan));
  core_.served().context().stream_queue_chunks = cfg.stream_queue_chunks;
}

Broker::~Broker() { request_stop(); }

void Broker::reject_connection(net::TcpChannel& ch, net::RejectCode code) {
  // Sent before reading the hello: the verdict must not depend on
  // parsing anything the client queued. Best effort — a peer that
  // already hung up only costs us the exception.
  try {
    net::send_accept(ch, net::ServerAccept{
                             code, 0,
                             code == net::RejectCode::kServerBusy
                                 ? "admission queue full, retry later"
                                 : "broker is draining"});
  } catch (const net::NetError&) {
  }
  // The client's hello is still unread on this socket; a plain close
  // would reset the connection and the reset can destroy the verdict we
  // just sent before the client reads it. Linger until the client's EOF
  // (it hangs up as soon as it has the verdict), bounded so a stuck
  // peer cannot stall admission or drain.
  ch.linger_close(kRejectLingerMs);
}

void Broker::worker_loop(std::size_t worker) {
  for (;;) {
    std::unique_ptr<net::TcpChannel> ch;
    bool draining = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || queue_closed_; });
      if (queue_.empty()) return;  // closed and drained: worker exits
      ch = std::move(queue_.front());
      queue_.pop_front();
      core_.metrics().gauge("queue_depth").set(
          static_cast<std::int64_t>(queue_.size()));
      // A connection popped after stop was requested never became
      // in-flight; it gets the typed drain reject instead of a session.
      draining = queue_closed_ || stop_.load(std::memory_order_relaxed);
    }
    if (draining) {
      reject_connection(*ch, net::RejectCode::kShuttingDown);
      core_.count_drain_reject();
      continue;
    }
    std::unique_ptr<proto::Channel> link = std::move(ch);
    if (injector_)
      link = std::make_unique<net::FaultyChannel>(std::move(link), injector_);
    const net::ServedSession s =
        net::serve_connection(*link, core_.context(), *worker_rngs_[worker]);
    if (injector_)
      core_.metrics().gauge("faults_injected")
          .set(static_cast<std::int64_t>(injector_->faults_fired()));
    if (core_.record(worker, s)) request_stop();
  }
}

void Broker::run() {
  worker_rngs_.clear();
  for (std::size_t w = 0; w < cfg_.workers; ++w)
    worker_rngs_.push_back(std::make_unique<crypto::SystemRandom>());
  core_.run([this] {
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < cfg_.workers; ++w)
      workers.emplace_back([this, w] { worker_loop(w); });

    while (!stop_.load(std::memory_order_relaxed)) {
      std::unique_ptr<net::TcpChannel> ch;
      try {
        ch = listener_.accept(cfg_.accept_poll_ms, cfg_.tcp);
      } catch (const net::NetError&) {
        break;  // listener closed under us
      }
      if (!ch) continue;  // poll timeout: recheck the stop flag
      bool rejected = false;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        if (queue_.size() >= cfg_.admission_queue) {
          rejected = true;
        } else {
          queue_.push_back(std::move(ch));
          core_.metrics().gauge("queue_depth").set(
              static_cast<std::int64_t>(queue_.size()));
        }
      }
      if (rejected) {
        reject_connection(*ch, net::RejectCode::kServerBusy);
        core_.count_admission_reject();
      } else {
        queue_cv_.notify_one();
      }
    }

    // Graceful drain: no new connections, in-flight sessions complete,
    // queued leftovers get the typed shutdown reject from the workers.
    request_stop();
    {
      const std::lock_guard<std::mutex> lock(queue_mu_);
      queue_closed_ = true;
    }
    queue_cv_.notify_all();
    for (auto& w : workers) w.join();
  });
}

BrokerStats Broker::stats() const {
  BrokerStats st = core_.stats();
  const std::lock_guard<std::mutex> lock(queue_mu_);
  st.queue_depth = queue_.size();
  return st;
}

}  // namespace maxel::svc
