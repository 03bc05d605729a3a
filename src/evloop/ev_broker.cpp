#include "evloop/ev_broker.hpp"

#include <unordered_map>

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "net/error.hpp"

namespace maxel::evloop {

namespace {

int accept_nonblock(int lfd) {
#ifdef __linux__
  return ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
  const int fd = ::accept(lfd, nullptr, nullptr);
  if (fd >= 0) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return fd;
#endif
}

}  // namespace

// --- SpareFd --------------------------------------------------------------

SpareFd::SpareFd() { reacquire(); }

SpareFd::~SpareFd() { release(); }

void SpareFd::release() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SpareFd::reacquire() {
  if (fd_ < 0) fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

// --- connection / shard state ---------------------------------------------

struct EvBroker::EvConn {
  explicit EvConn(const EvServeContext& ctx) : session(ctx) {}
  int fd = -1;
  EvSession session;
  std::uint64_t last_activity = 0;
  std::uint64_t idle_timer = 0;  // timer-wheel handle, 0 = none armed
  std::uint64_t gate_timer = 0;  // pool-gate retry handle
  bool want_write = false;
  bool write_dead = false;  // peer reset our sends; output undeliverable
};

struct EvBroker::Shard {
  std::size_t index = 0;
  EvLoop loop;
  std::unique_ptr<net::TcpListener> listener;
  SpareFd spare;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<EvConn>> conns;
  svc::Gauge* sessions_gauge = nullptr;
  bool draining = false;
  bool listener_on = false;
};

// --- construction ----------------------------------------------------------

EvBroker::EvBroker(const EvBrokerConfig& cfg)
    : cfg_(cfg), core_(cfg, cfg.shards, "evbroker", "shard") {
  cfg_.shards = core_.slots();
  cfg_.tcp = cfg.connection_tcp();

  // The busy verdict, framed once: the EMFILE path sends it raw with a
  // single syscall, no channel object needed on a dying fd.
  {
    BufferedChannel bc;
    net::send_accept(bc,
                     net::ServerAccept{net::RejectCode::kServerBusy, 0,
                                       "fd limit reached, retry later"});
    bc.flush();
    struct iovec iov[16];
    const std::size_t n = bc.gather(iov, 16);
    for (std::size_t i = 0; i < n; ++i) {
      const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
      busy_reject_bytes_.insert(busy_reject_bytes_.end(), p,
                                p + iov[i].iov_len);
    }
  }

  g_open_fds_ = &core_.metrics().gauge("ev_open_fds");
  g_ready_depth_ = &core_.metrics().gauge("ev_ready_queue_depth");

  // Listeners up front so port() is valid before run(). Shard 0 may bind
  // an ephemeral port; the rest join it via SO_REUSEPORT, giving the
  // kernel a per-shard accept queue to spread connections over.
  net::ListenOptions lo;
  lo.backlog = cfg_.listen_backlog;
  lo.reuseport = cfg_.shards > 1;
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    const std::uint16_t p = (i == 0) ? cfg_.port : port_;
    sh->listener = std::make_unique<net::TcpListener>(p, cfg_.bind_addr, lo);
    if (i == 0) port_ = sh->listener->port();
    // The listener must be non-blocking: accept4's SOCK_NONBLOCK flag
    // shapes the accepted socket, not the accept call itself, and an
    // edge-triggered drain loop re-accepts until EAGAIN — on a blocking
    // listener that second call would freeze the whole shard.
    const int lfl = ::fcntl(sh->listener->fd(), F_GETFL, 0);
    if (lfl >= 0)
      ::fcntl(sh->listener->fd(), F_SETFL, lfl | O_NONBLOCK);
    sh->sessions_gauge = &core_.metrics().gauge(
        "ev_shard" + std::to_string(i) + "_sessions");
    shards_.push_back(std::move(sh));
  }
}

EvBroker::~EvBroker() { request_stop(); }

// --- shard event handling ---------------------------------------------------

std::uint64_t EvBroker::idle_deadline_ms() const {
  if (cfg_.idle_timeout_ms > 0)
    return static_cast<std::uint64_t>(cfg_.idle_timeout_ms);
  if (cfg_.tcp.recv_timeout_ms > 0)
    return static_cast<std::uint64_t>(cfg_.tcp.recv_timeout_ms);
  return 30'000;
}

void EvBroker::shard_loop(Shard& sh) {
  const int lfd = sh.listener->fd();
  sh.loop.add_fd(
      lfd, true, false,
      [this, &sh](bool r, bool, bool) {
        if (r) accept_drain(sh);
      },
      /*edge=*/true);
  sh.listener_on = true;
  if (stop_.load(std::memory_order_relaxed)) begin_drain(sh);
  sh.loop.run();
  // Defensive sweep: a forced stop may leave connections behind; their
  // session destructors discard open claims and release gates.
  for (auto& kv : sh.conns) ::close(kv.first);
  sh.conns.clear();
}

void EvBroker::accept_drain(Shard& sh) {
  g_ready_depth_->set(
      static_cast<std::int64_t>(sh.loop.last_batch_size()));
  // Edge-triggered listener: one readiness event may stand for many
  // queued connections, so drain until EAGAIN or we'd lose events.
  for (;;) {
    if (sh.draining) return;
    const int cfd = accept_nonblock(sh.listener->fd());
    if (cfd >= 0) {
      add_conn(sh, cfd);
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EMFILE || errno == ENFILE) {
      if (!busy_reject(sh)) return;
      continue;
    }
    return;  // transient accept failure; the next readiness event retries
  }
}

bool EvBroker::busy_reject(Shard& sh) {
  // Out of fd slots. Closing the reserve frees exactly one, which admits
  // the connection at the head of the queue long enough to deliver the
  // typed kServerBusy verdict — the client backs off and retries instead
  // of timing out against a full, frozen accept queue.
  sh.spare.release();
  const int cfd = accept_nonblock(sh.listener->fd());
  bool admitted = false;
  if (cfd >= 0) {
    ::send(cfd, busy_reject_bytes_.data(), busy_reject_bytes_.size(),
           MSG_DONTWAIT | MSG_NOSIGNAL);
    ::shutdown(cfd, SHUT_WR);
    ::close(cfd);
    core_.count_admission_reject();
    admitted = true;
  }
  sh.spare.reacquire();
  return admitted;
}

void EvBroker::add_conn(Shard& sh, int cfd) {
  int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<EvConn>(core_.context());
  EvConn* c = conn.get();
  c->fd = cfd;
  c->last_activity = EvLoop::now_ms();
  sh.conns.emplace(cfd, std::move(conn));
  g_open_fds_->set(open_conns_.fetch_add(1, std::memory_order_relaxed) + 1);
  sh.sessions_gauge->set(static_cast<std::int64_t>(sh.conns.size()));
  sh.loop.add_fd(cfd, true, false, [this, &sh, c](bool r, bool w, bool err) {
    on_io(sh, c, r, w, err);
  });
  arm_idle(sh, c);
}

void EvBroker::on_io(Shard& sh, EvConn* c, bool r, bool w, bool err) {
  g_ready_depth_->set(
      static_cast<std::int64_t>(sh.loop.last_batch_size()));
  (void)w;  // service_conn drains output regardless of which edge woke us
  if (r || err) {
    for (;;) {
      std::uint8_t buf[64 * 1024];
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c->last_activity = EvLoop::now_ms();
        c->session.on_bytes(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        c->session.on_peer_eof();
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // ECONNRESET-class: same taxonomy as a mid-session hangup.
      c->session.on_peer_eof();
      break;
    }
  }
  service_conn(sh, c);
}

bool EvBroker::write_drain(Shard& sh, EvConn& c) {
  BufferedChannel& ch = c.session.channel();
  while (ch.has_output()) {
    struct iovec iov[16];
    const std::size_t n = ch.gather(iov, 16);
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(n);
    const ssize_t w = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      c.last_activity = EvLoop::now_ms();
      ch.mark_written(static_cast<std::size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.write_dead = true;
    break;
  }
  const bool want = ch.has_output() && !c.write_dead;
  if (want != c.want_write) {
    c.want_write = want;
    sh.loop.set_interest(c.fd, true, want);
  }
  if (c.write_dead) {
    if (!c.session.done() && !c.session.failed())
      c.session.on_peer_eof();  // record the taxonomy before closing
    return false;
  }
  return true;
}

void EvBroker::service_conn(Shard& sh, EvConn* c) {
  if (!write_drain(sh, *c)) {
    finish_conn(sh, c, false);
    return;
  }
  if (c->session.wants_gate_retry() && c->gate_timer == 0) {
    // Lost the per-client pool gate to a concurrent session (possibly on
    // this very thread): park on the wheel and re-poke shortly.
    c->gate_timer = sh.loop.arm_timer(16, [this, &sh, c] {
      c->gate_timer = 0;
      c->session.on_gate_retry();
      service_conn(sh, c);
    });
    return;
  }
  if ((c->session.done() || c->session.failed()) &&
      !c->session.channel().has_output())
    finish_conn(sh, c, false);
}

void EvBroker::arm_idle(Shard& sh, EvConn* c) {
  const std::uint64_t now = EvLoop::now_ms();
  const std::uint64_t due = c->last_activity + idle_deadline_ms();
  c->idle_timer =
      sh.loop.arm_timer(due > now ? due - now : 1, [this, &sh, c] {
        c->idle_timer = 0;
        // Lazy re-arm: activity since arming pushes the deadline out
        // instead of resetting a timer on every byte.
        if (EvLoop::now_ms() - c->last_activity >= idle_deadline_ms())
          finish_conn(sh, c, /*evicted_idle=*/true);
        else
          arm_idle(sh, c);
      });
}

void EvBroker::finish_conn(Shard& sh, EvConn* c, bool evicted_idle) {
  if (c->idle_timer != 0) {
    sh.loop.cancel_timer(c->idle_timer);
    c->idle_timer = 0;
  }
  if (c->gate_timer != 0) {
    sh.loop.cancel_timer(c->gate_timer);
    c->gate_timer = 0;
  }
  record_result(sh, *c, evicted_idle);
  const int fd = c->fd;
  sh.loop.remove_fd(fd);
  sh.loop.defer_close(fd);
  sh.conns.erase(fd);
  g_open_fds_->set(open_conns_.fetch_sub(1, std::memory_order_relaxed) - 1);
  sh.sessions_gauge->set(static_cast<std::int64_t>(sh.conns.size()));
  if (sh.draining && sh.conns.empty()) sh.loop.stop();
}

void EvBroker::record_result(Shard& sh, EvConn& c, bool evicted_idle) {
  const EvSession& s = c.session;
  net::ServedSession r;
  r.stats = s.stats();
  r.mode = s.mode_name();
  r.session_seconds = s.session_seconds();
  if (!s.done()) {
    if (evicted_idle) {
      r.failure = net::SessionFailure::kIdleTimeout;
      r.error = "evicted idle peer";
    } else {
      r.failure = s.error() == EvError::kHandshake
                      ? net::SessionFailure::kHandshake
                  : s.error() == EvError::kPeerClosed
                      ? net::SessionFailure::kPeerClosed
                      : net::SessionFailure::kOther;
      r.error = s.error_text();
    }
    net::count_failure(r.stats, r.failure);
  }
  if (core_.record(sh.index, r)) request_stop();
}

// --- lifecycle --------------------------------------------------------------

void EvBroker::begin_drain(Shard& sh) {
  if (sh.draining) return;
  sh.draining = true;
  if (sh.listener_on) {
    sh.loop.remove_fd(sh.listener->fd());
    sh.listener_on = false;
  }
  if (sh.conns.empty()) sh.loop.stop();
}

void EvBroker::request_stop() {
  if (stop_.exchange(true, std::memory_order_relaxed)) return;
  for (auto& sh : shards_) {
    Shard* s = sh.get();
    s->loop.post([this, s] { begin_drain(*s); });
  }
}

void EvBroker::run() {
  core_.run([this] {
    for (auto& sh : shards_)
      sh->thread = std::thread([this, s = sh.get()] { shard_loop(*s); });
    for (auto& sh : shards_) sh->thread.join();
  });
}

}  // namespace maxel::evloop
