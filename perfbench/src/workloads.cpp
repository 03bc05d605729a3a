// Measurement phase of the workloads: set-up repeated and timed, then a
// closed loop of verified sessions for the run's duration.
#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "net/client.hpp"
#include "net/handshake.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace maxel;

constexpr int kSetups = 9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Samples the heap bytes in use (glibc mallinfo2, all arenas) every few
// milliseconds while alive and keeps the peak: the memory the workload
// holds while it runs, without the allocator's retained free pages that
// make peak RSS vary from run to run.
class HeapSampler {
 public:
  HeapSampler() : thread_([this] { loop(); }) {}
  ~HeapSampler() { stop(); }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  // Stops sampling; returns the peak in MiB.
  double stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return static_cast<double>(peak_) / (1024.0 * 1024.0);
  }

 private:
  void loop() {
    while (!stop_.load()) {
      const struct mallinfo2 mi = mallinfo2();
      peak_ = std::max(peak_, mi.uordblks + mi.hblkhd);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::atomic<bool> stop_{false};
  std::size_t peak_ = 0;  // written by the sampler thread, read after join
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// An in-process EvBroker on loopback and kClients closed-loop clients.

// One broker instance with its runner thread. Stopping drains it and
// records the invariants that only hold once no session is in flight.
class LiveBroker {
 public:
  LiveBroker(const RunConfig& cfg, const std::string& spool_dir)
      : spool_dir_(spool_dir) {
    fs::remove_all(spool_dir_);
    evloop::EvBrokerConfig bc;
    bc.bind_addr = "127.0.0.1";
    bc.port = 0;
    bc.bits = cfg.wl->bits;
    bc.rounds_per_session = cfg.wl->rounds;
    bc.demo_seed = cfg.seed;
    bc.shards = kShards;
    bc.precompute_cores = kPrecomputeCores;
    bc.spool_dir = spool_dir_;
    bc.verbose = false;
    if (cfg.wl->kind != Kind::kV3) {
      // Only v3 sessions come out of the spool; keep the producer idle.
      bc.spool_low_watermark = 0;
      bc.spool_high_watermark = 0;
    }
    broker_ = std::make_unique<evloop::EvBroker>(bc);
    runner_ = std::thread([this] { broker_->run(); });
  }
  ~LiveBroker() { stop(); }
  LiveBroker(const LiveBroker&) = delete;
  LiveBroker& operator=(const LiveBroker&) = delete;

  evloop::EvBroker& broker() { return *broker_; }

  // Drains the broker; returns its final stats.
  svc::BrokerStats stop() {
    if (runner_.joinable()) {
      broker_->request_stop();
      runner_.join();
      final_ = broker_->stats();
      outstanding_claims_ = broker_->v3_outstanding_claims();
      std::error_code ec;
      fs::remove_all(spool_dir_, ec);
    }
    return final_;
  }
  [[nodiscard]] std::uint64_t outstanding_claims() const {
    return outstanding_claims_;
  }

 private:
  std::string spool_dir_;
  std::unique_ptr<evloop::EvBroker> broker_;
  std::thread runner_;
  svc::BrokerStats final_;
  std::uint64_t outstanding_claims_ = 0;
};

net::ClientConfig client_config(const RunConfig& cfg, std::uint16_t port,
                                std::size_t client) {
  net::ClientConfig cc;
  cc.host = "127.0.0.1";
  cc.port = port;
  cc.bits = cfg.wl->bits;
  cc.demo_seed = cfg.seed;
  cc.verbose = false;
  cc.tcp.recv_timeout_ms = 30'000;
  cc.tcp.connect_attempts = 3;
  cc.ot = net::OtChoice::kIknp;
  if (cfg.wl->kind == Kind::kStream) {
    cc.mode = net::SessionMode::kStream;
    cc.protocol = net::kProtocolVersion;
  } else {
    cc.mode = cfg.wl->kind == Kind::kReusable ? net::SessionMode::kReusable
                                              : net::SessionMode::kPrecomputed;
    cc.protocol = net::kProtocolVersionV3;
    // The client identity is drawn from the workload seed.
    crypto::SystemRandom id_rng(crypto::Block{cfg.seed, 0x1D00 + client});
    cc.v3_state = net::make_v3_client_state(id_rng);
  }
  return cc;
}

// The per-client session loop's private results, merged after the join.
struct ClientLog {
  Tally tally;
  std::vector<std::string> violations;
  std::uint64_t macs = 0;
  double wire_bytes = 0;
  std::vector<double> latency_ms, traced_latency_ms;
  std::vector<double> handshake_ms, body_ms, eval_ms, first_table_ms,
      recv_wait_ms, records;
};

// Runs one session and records it in `log`. With a span log the session
// is traced: its channel goes through the timing decorator and it gets a
// run_client span.
void one_session(const net::ClientConfig& base, SpanLog* spans,
                 std::uint64_t session_id, ClientLog& log) {
  const bool traced = spans != nullptr;
  net::ClientConfig cc = base;
  ChannelTally tally;
  std::uint64_t span_id = 0;
  if (traced) {
    span_id = spans->next_id();
    cc.channel_factory = [&cc, spans, session_id, span_id, &tally] {
      return std::make_unique<TimingChannel>(
          net::TcpChannel::connect(cc.host, cc.port, cc.tcp), *spans,
          session_id, span_id, tally);
    };
  }
  const std::int64_t t0 = now_ns();
  net::ClientStats st;
  Outcome outcome = Outcome::kVerified;
  try {
    st = net::run_client(cc);
    if (!st.checked || !st.verified) outcome = Outcome::kUnverified;
  } catch (const std::exception&) {
    outcome = Outcome::kThrew;
  }
  const std::int64_t t1 = now_ns();
  if (traced)
    spans->add(Span{"run_client", t0, t1, span_id, 0, session_id});
  log.tally.record(outcome);
  if (outcome == Outcome::kUnverified)
    log.violations.push_back("session returned verified == false");
  if (outcome != Outcome::kVerified) return;

  const double ms = 1e-6 * static_cast<double>(t1 - t0);
  (traced ? log.traced_latency_ms : log.latency_ms).push_back(ms);
  log.macs += st.rounds;
  log.wire_bytes += static_cast<double>(st.bytes_sent + st.bytes_received);
  log.handshake_ms.push_back(1e3 * st.handshake_seconds);
  log.body_ms.push_back(1e3 * (st.ot_seconds + st.transfer_seconds + st.eval_seconds));
  log.eval_ms.push_back(1e3 * st.eval_seconds);
  log.first_table_ms.push_back(1e3 * st.first_table_seconds);
  if (traced) {
    log.recv_wait_ms.push_back(1e-6 * static_cast<double>(tally.recv_wait_ns));
    log.records.push_back(static_cast<double>(tally.records));
  }
}

// A fair coin per (seed, client, session), from the splitmix64 finalizer.
bool coin(std::uint64_t seed, std::size_t client, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + client * 0xBF58476D1CE4E5B9ull + k;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return ((z ^ (z >> 31)) & 1) != 0;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Gate checks that hold for every broker of the run once it is drained.
void check_drained(const RunConfig& cfg, LiveBroker& live, Measured& m) {
  const svc::BrokerStats st = live.stop();
  m.connection_errors += st.server.connection_errors;
  if (live.outstanding_claims() != 0)
    m.violations.push_back("v3_outstanding_claims() = " +
                           std::to_string(live.outstanding_claims()) +
                           " after drain");
  if (cfg.wl->kind == Kind::kReusable && st.server.reusable_garbles != 1)
    m.violations.push_back("reusable_garbles = " +
                           std::to_string(st.server.reusable_garbles) +
                           ", want 1");
}

}  // namespace

Measured run_serving(const RunConfig& cfg, TraceSink& sink) {
  Measured m;
  const std::string spool_dir = cfg.work_dir + "/spool";

  // Set-up: broker construction (reusable garble included) and the first
  // session of each client, repeated; the last broker stays up.
  std::unique_ptr<LiveBroker> live;
  std::vector<net::ClientConfig> clients;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (live) {
      check_drained(cfg, *live, m);
      live.reset();
    }
    const auto t0 = Clock::now();
    live = std::make_unique<LiveBroker>(cfg, spool_dir);
    clients.clear();
    ClientLog first;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(client_config(cfg, live->broker().port(), c));
      one_session(clients.back(), nullptr, 0, first);
    }
    m.setup_s.push_back(seconds_since(t0));
    m.tally.merge(first.tally);
    m.violations.insert(m.violations.end(), first.violations.begin(),
                        first.violations.end());
  }

  // Measured window: kClients closed loops until the deadline.
  evloop::EvBroker& broker = live->broker();
  const svc::BrokerStats before = broker.stats();
  const std::uint64_t waits_before =
      broker.metrics().counter("spool_empty_waits").value();
  HeapSampler heap;
  const double cpu0 = process_cpu_seconds();
  const auto t_start = Clock::now();
  const auto deadline =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));
  std::vector<ClientLog> logs(kClients);
  std::vector<SpanLog*> span_logs;
  for (std::size_t c = 0; c < kClients; ++c) span_logs.push_back(&sink.new_log());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t k = 0;
      while (Clock::now() < deadline) {
        // In a traced run a seeded coin traces half the sessions, so the
        // traced and untraced latencies of one run give the tracing
        // overhead. (Strict alternation would put every periodic stall,
        // such as a pool extension each 16th session, on one side.)
        const bool traced = cfg.trace && coin(cfg.seed, c, k);
        const std::uint64_t session_id = (c + 1) * 1'000'000'000ull + k;
        one_session(clients[c], traced ? span_logs[c] : nullptr, session_id,
                    logs[c]);
        ++k;
      }
    });
  }
  for (auto& t : threads) t.join();
  m.window_s = seconds_since(t_start);
  m.cpu_s = process_cpu_seconds() - cpu0;
  m.peak_heap_mb = heap.stop();
  const svc::BrokerStats after = broker.stats();
  const std::uint64_t waits_after =
      broker.metrics().counter("spool_empty_waits").value();

  for (const ClientLog& l : logs) {
    m.tally.merge(l.tally);
    m.violations.insert(m.violations.end(), l.violations.begin(),
                        l.violations.end());
    m.macs += l.macs;
    m.wire_bytes += l.wire_bytes;
    append(m.latency_ms, l.latency_ms);
    append(m.traced_latency_ms, l.traced_latency_ms);
    append(m.handshake_ms, l.handshake_ms);
    append(m.body_ms, l.body_ms);
    append(m.eval_ms, l.eval_ms);
    append(m.first_table_ms, l.first_table_ms);
    append(m.recv_wait_ms, l.recv_wait_ms);
    append(m.records, l.records);
  }
  m.sessions = m.latency_ms.size() + m.traced_latency_ms.size();

  const double served = static_cast<double>(after.server.sessions_served -
                                            before.server.sessions_served);
  if (served > 0) {
    const auto per = [served](double a, double b) { return (a - b) / served; };
    m.server_handshake_ms =
        1e3 * per(after.server.handshake_seconds, before.server.handshake_seconds);
    m.server_first_table_ms = 1e3 * per(after.server.first_table_seconds,
                                        before.server.first_table_seconds);
    m.fresh_pools_per_session =
        per(static_cast<double>(after.server.v3_fresh_pools),
            static_cast<double>(before.server.v3_fresh_pools));
    m.ots_extended_per_session =
        per(static_cast<double>(after.server.v3_ot_extended),
            static_cast<double>(before.server.v3_ot_extended));
    m.spool_empty_waits_per_session =
        per(static_cast<double>(waits_after), static_cast<double>(waits_before));
  }
  check_drained(cfg, *live, m);
  return m;
}

}  // namespace perfbench
