#include "replay.hpp"

#include <sys/uio.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "circuit/circuits.hpp"
#include "core/gc_core_pool.hpp"
#include "core/matmul.hpp"
#include "crypto/aes.hpp"
#include "crypto/gc_hash.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "evloop/buffered_channel.hpp"
#include "evloop/session.hpp"
#include "gc/garble.hpp"
#include "gc/reusable.hpp"
#include "gc/v3.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/v3_service.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/chunk_io.hpp"
#include "proto/v3_session.hpp"
#include "svc/session_spool.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace maxel;
using crypto::Block;

// Keeps results observable so timed loops are not optimized away.
volatile std::uint64_t g_sink = 0;

// Median over `reps` repetitions of fn(), which performs `ops` operations
// and is recorded as one span named `name`; returns ns per operation.
template <class F>
double median_ns_per_op(SpanLog& log, const char* name, int reps, double ops,
                        F&& fn) {
  std::vector<double> per_op;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    log.add(Span{name, t0, t1, log.next_id(), 0, 0});
    per_op.push_back(static_cast<double>(t1 - t0) / ops);
  }
  return median(per_op);
}

Block odd_block(crypto::RandomSource& rng) {
  Block b = rng.next_block();
  b.lo |= 1;
  return b;
}

// --- crypto -------------------------------------------------------------

void replay_crypto(Replay& out, SpanLog& log) {
  const crypto::Aes128 aes;
  constexpr std::size_t kCalls = 1u << 15;
  Block in[16], res[16];
  for (std::size_t i = 0; i < 16; ++i) in[i] = Block{i * 0x9E3779B97F4A7C15ull, i};
  const auto aes_width = [&](std::size_t w) {
    return median_ns_per_op(log, "crypto.encrypt_batch", 7,
                            static_cast<double>(kCalls * w), [&] {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < kCalls; ++i) {
        in[0].hi = i;
        aes.encrypt_batch(in, res, w);
        acc ^= res[w - 1].lo;
      }
      g_sink = g_sink + acc;
    });
  };
  out.aes_ns_x1 = aes_width(1);
  out.aes_ns_x4 = aes_width(4);
  out.aes_ns_x16 = aes_width(16);

  const crypto::GcHash hash;
  out.gc_hash_ns = median_ns_per_op(log, "crypto.gc_hash", 7,
                                    static_cast<double>(kCalls), [&] {
    Block x = in[3];
    for (std::size_t i = 0; i < kCalls; ++i) x = hash(x, Block{2 * i, 7});
    g_sink = g_sink + x.lo;
  });

  out.aes_dispatch_ns = median_ns_per_op(log, "crypto.aes_active_backend", 7,
                                         static_cast<double>(kCalls), [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kCalls; ++i)
      acc += static_cast<std::uint64_t>(crypto::aes_active_backend());
    g_sink = g_sink + acc;
  });
}

// --- circuit + gc ---------------------------------------------------------

void replay_gc(const Workload& wl, Replay& out, SpanLog& log) {
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{wl.bits, wl.bits, true});
  out.ands_per_mac = static_cast<double>(circ.and_count());
  out.table_bytes_per_mac = out.ands_per_mac * gc::bytes_per_and(gc::Scheme::kHalfGates);
  out.build_mac_us = 1e-3 * median_ns_per_op(log, "circuit.make_mac_circuit", 9, 1, [&] {
    const circuit::Circuit c =
        circuit::make_mac_circuit(circuit::MacOptions{wl.bits, wl.bits, true});
    const gc::V3Analysis an = gc::analyze_v3(c);
    g_sink = g_sink + c.and_count() + an.rows_per_round;
  });

  crypto::SystemRandom rng(Block{0x6A, wl.bits});
  const double rounds = static_cast<double>(wl.rounds);
  std::vector<gc::RoundMaterial> mats;
  std::vector<Block> init_state;
  out.garble_round_us = 1e-3 * median_ns_per_op(log, "gc.garble_round", 7, rounds, [&] {
    gc::CircuitGarbler g(circ, gc::Scheme::kHalfGates, rng);
    for (std::size_t r = 0; r < wl.rounds; ++r) g_sink = g_sink + g.garble_round().tables.size();
  });
  out.garble_ns_per_and = 1e3 * out.garble_round_us / out.ands_per_mac;

  // Evaluate all-zero inputs: the garbler's 0-labels are the active ones.
  gc::CircuitGarbler g(circ, gc::Scheme::kHalfGates, rng);
  for (std::size_t r = 0; r < wl.rounds; ++r) mats.push_back(g.garble_round_material());
  init_state = g.initial_state_labels();
  std::vector<std::vector<Block>> eval_labels;
  for (const auto& m : mats) {
    std::vector<Block> e;
    for (const auto& p : m.evaluator_pairs) e.push_back(p.first);
    eval_labels.push_back(std::move(e));
  }
  out.eval_round_us = 1e-3 * median_ns_per_op(log, "gc.eval_round", 7, rounds, [&] {
    gc::CircuitEvaluator ev(circ, gc::Scheme::kHalfGates);
    if (!init_state.empty()) ev.set_initial_state_labels(init_state);
    for (std::size_t r = 0; r < wl.rounds; ++r)
      g_sink = g_sink + ev.eval_round(mats[r].tables, mats[r].garbler_labels0,
                                      eval_labels[r], mats[r].fixed_labels)
                            .size();
  });

  const gc::ReusableCircuit artifact = gc::make_reusable_circuit(circ, rng);
  const std::vector<bool> g_zero(circ.garbler_inputs.size());
  const std::vector<bool> e_zero(circ.evaluator_inputs.size());
  out.reusable_eval_round_us = 1e-3 * median_ns_per_op(log, "gc.reusable_eval_round", 7, rounds, [&] {
    gc::ReusableEvaluator ev(circ, artifact.view);
    for (std::size_t r = 0; r < wl.rounds; ++r)
      g_sink = g_sink + ev.eval_round(g_zero, e_zero).size();
  });

  // One stream chunk of up to 16 rounds (the brokers' chunk size).
  proto::WireChunk chunk;
  chunk.scheme = gc::Scheme::kHalfGates;
  for (std::size_t r = 0; r < std::min<std::size_t>(16, wl.rounds); ++r)
    chunk.rounds.push_back(proto::WireChunk::Round{
        mats[r].tables, mats[r].garbler_labels0, mats[r].fixed_labels,
        mats[r].output_map});
  chunk.initial_state_labels = init_state;
  out.chunk_roundtrip_us = 1e-3 * median_ns_per_op(log, "proto.chunk_roundtrip", 9, 1, [&] {
    const std::vector<std::uint8_t> bytes = proto::serialize_chunk(chunk);
    g_sink = g_sink + proto::parse_chunk(bytes.data(), bytes.size()).rounds.size();
  });
}

// --- core -----------------------------------------------------------------

void replay_core(const Workload& wl, std::uint64_t seed, Replay& out,
                 SpanLog& log) {
  core::GcCorePool pool(kReplayCores, Block{seed, 0xC0E});
  crypto::Prg prg(Block{seed, 0xC0F});
  const std::uint64_t mask = (1ull << wl.bits) - 1;
  std::vector<std::vector<std::uint64_t>> a(2, std::vector<std::uint64_t>(wl.rounds));
  std::vector<std::vector<std::uint64_t>> x(wl.rounds, std::vector<std::uint64_t>(2));
  for (auto& row : a)
    for (auto& v : row) v = prg.next_u64() & mask;
  for (auto& row : x)
    for (auto& v : row) v = prg.next_u64() & mask;
  const double macs = 4.0 * static_cast<double>(wl.rounds);
  core::ParallelMatMulResult res;
  const double ns = median_ns_per_op(log, "core.parallel_matmul", 3, macs, [&] {
    res = core::parallel_matmul_on_pool(a, x, wl.bits, pool);
  });
  out.core_macs_per_s_per_core = 1e9 / ns / static_cast<double>(kReplayCores);
  double cells = 0;
  for (const auto& st : res.core_stats) {
    if (st.rounds == 0) continue;
    out.core_cycles_per_mac += st.cycles_per_mac * static_cast<double>(st.rounds);
    out.core_utilization += st.utilization() * static_cast<double>(st.rounds);
    cells += static_cast<double>(st.rounds);
  }
  if (cells > 0) {
    out.core_cycles_per_mac /= cells;
    out.core_utilization /= cells;
  }
}

// --- ot -------------------------------------------------------------------

void replay_ot(Replay& out, SpanLog& log) {
  crypto::SystemRandom rng(Block{0x07, 0x07});
  std::optional<ot::CorrelatedPoolSender> server;
  std::optional<ot::CorrelatedPoolReceiver> client;
  auto [sch, cch] = proto::MemoryChannel::create_pair();
  out.base_setup_ms = 1e-6 * median_ns_per_op(log, "ot.pool_base_setup", 5, 1, [&] {
    server.emplace(odd_block(rng), 1);
    client.emplace();
    ot::pool_base_setup(*server, *client, *sch, *cch, rng, rng);
  });
  out.pool_extend_ms = 1e-6 * median_ns_per_op(log, "ot.pool_extend", 5, 1, [&] {
    client->extend(*cch, ot::kPoolExtendBatch);
    server->extend(*sch, ot::kPoolExtendBatch);
  });
}

// --- proto + svc ------------------------------------------------------------

void replay_v3_records(const Workload& wl, std::uint64_t seed,
                       const std::string& work_dir, Replay& out, SpanLog& log) {
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{wl.bits, wl.bits, true});
  const gc::V3Analysis an = gc::analyze_v3(circ);
  net::DemoInputStream a_inputs(seed, net::kGarblerStream, wl.bits);
  std::vector<std::vector<bool>> g_bits(wl.rounds);
  for (auto& row : g_bits) row = a_inputs.next_bits();
  crypto::SystemRandom rng(Block{seed, 0x53});
  const Block delta = odd_block(rng);
  const proto::PrecomputedSessionV3 session =
      proto::garble_session_v3(circ, an, g_bits, delta, rng.next_block(), rng);

  std::vector<std::uint8_t> bytes;
  out.v3_serialize_us = 1e-3 * median_ns_per_op(log, "proto.serialize_session_v3", 9, 1, [&] {
    bytes = proto::serialize_session_v3(session);
  });
  out.v3_parse_us = 1e-3 * median_ns_per_op(log, "proto.parse_session_v3", 9, 1, [&] {
    g_sink = g_sink + proto::parse_session_v3(bytes.data(), bytes.size()).round_count();
  });

  // The brokers' spool settings, in a scratch directory.
  const std::string dir = work_dir + "/replay-spool";
  fs::remove_all(dir);
  {
    svc::SessionSpool spool(svc::SpoolConfig{dir, 4, true});
    constexpr int kOps = 8;
    out.spool_put_ms = 1e-6 * median_ns_per_op(log, "svc.spool_put_v3", kOps, 1, [&] {
      spool.put_v3(session);
    });
    const std::uint64_t lineage = proto::delta_lineage(delta);
    out.spool_take_ms = 1e-6 * median_ns_per_op(log, "svc.spool_take_v3", kOps, 1, [&] {
      if (!spool.take_v3(lineage))
        throw std::runtime_error("replay: spool take_v3 came back empty");
    });
  }
  fs::remove_all(dir);
}

// --- evloop -----------------------------------------------------------------

// The client's end of an in-memory shuttle: frames like TcpChannel and
// hands every flushed frame straight to an EvSession's on_bytes, then
// pulls the session's output back. Client and server run on one thread.
class ShuttleChannel final : public proto::Channel {
 public:
  explicit ShuttleChannel(std::shared_ptr<evloop::EvSession> s)
      : session_(std::move(s)) {}
  ~ShuttleChannel() override {
    try {
      flush();  // the client's last record, if it closed without a flush
    } catch (const std::exception&) {
      // The session records its own failure; done() reports it.
    }
  }
  ShuttleChannel(const ShuttleChannel&) = delete;
  ShuttleChannel& operator=(const ShuttleChannel&) = delete;

  void flush() override {
    wire_.flush();
    pump();
  }

 protected:
  void raw_send(const std::uint8_t* data, std::size_t n) override {
    wire_.send_bytes(data, n);
  }
  void raw_recv(std::uint8_t* data, std::size_t n) override {
    if (wire_.available() < n) flush();
    if (wire_.available() < n)
      throw std::runtime_error("shuttle: session produced no reply (" +
                               session_->error_text() + ")");
    wire_.recv_bytes(data, n);
  }

 private:
  void pump() {
    struct iovec iov[16];
    while (wire_.has_output()) {
      const std::size_t k = wire_.gather(iov, 16);
      std::size_t moved = 0;
      for (std::size_t i = 0; i < k; ++i) {
        session_->on_bytes(static_cast<const std::uint8_t*>(iov[i].iov_base),
                           iov[i].iov_len);
        moved += iov[i].iov_len;
      }
      wire_.mark_written(moved);
      while (session_->wants_gate_retry()) session_->on_gate_retry();
    }
    evloop::BufferedChannel& out = session_->channel();
    while (out.has_output()) {
      const std::size_t k = out.gather(iov, 16);
      std::size_t moved = 0;
      for (std::size_t i = 0; i < k; ++i) {
        wire_.ingest(static_cast<const std::uint8_t*>(iov[i].iov_base),
                     iov[i].iov_len);
        moved += iov[i].iov_len;
      }
      out.mark_written(moved);
    }
  }

  std::shared_ptr<evloop::EvSession> session_;
  evloop::BufferedChannel wire_;  // client-side framing
};

void replay_evloop(const Workload& wl, std::uint64_t seed, Replay& out,
                   SpanLog& log) {
    const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{wl.bits, wl.bits, true});
  const gc::V3Analysis an = gc::analyze_v3(circ);
  crypto::SystemRandom rng(Block{seed, 0xE7});
  net::V3PoolRegistry reg(rng.next_block());
  net::DemoInputStream a_inputs(seed, net::kGarblerStream, wl.bits);
  std::vector<std::vector<bool>> g_bits(wl.rounds);
  for (auto& row : g_bits) row = a_inputs.next_bits();

  constexpr int kSessions = 9;  // the first one (pool set-up) is not timed
  std::deque<proto::PrecomputedSessionV3> v3_ready;
  if (wl.kind == Kind::kV3)
    for (int i = 0; i < kSessions; ++i)
      v3_ready.push_back(proto::garble_session_v3(circ, an, g_bits, reg.delta(),
                                                  rng.next_block(), rng));
  std::optional<net::ReusableServeContext> rctx;
  if (wl.kind == Kind::kReusable)
    rctx = net::make_reusable_context(
        circ, net::garble_reusable(circ, static_cast<std::uint32_t>(wl.bits), rng),
        static_cast<std::uint32_t>(wl.rounds), seed);

  evloop::EvServeContext ctx;
  ctx.circ = &circ;
  ctx.expect.scheme = gc::Scheme::kHalfGates;
  ctx.expect.bit_width = static_cast<std::uint32_t>(wl.bits);
  ctx.expect.circuit_hash = net::circuit_fingerprint(circ);
  ctx.expect.rounds_per_session = static_cast<std::uint32_t>(wl.rounds);
  ctx.expect.allow_stream = true;
  ctx.expect.allow_v3 = true;
  ctx.expect.allow_reusable = true;
  ctx.reg = &reg;
  ctx.reusable = rctx ? &*rctx : nullptr;
  ctx.bits = wl.bits;
  ctx.rounds = wl.rounds;
  ctx.demo_seed = seed;
  ctx.scheme = gc::Scheme::kHalfGates;
  ctx.take_v3 = [&v3_ready] {
    proto::PrecomputedSessionV3 s = std::move(v3_ready.front());
    v3_ready.pop_front();
    return s;
  };

  net::ClientConfig cc;
  cc.bits = wl.bits;
  cc.demo_seed = seed;
  cc.verbose = false;
  if (wl.kind == Kind::kStream) {
    cc.mode = net::SessionMode::kStream;
    cc.protocol = net::kProtocolVersion;
  } else {
    cc.mode = wl.kind == Kind::kReusable ? net::SessionMode::kReusable
                                      : net::SessionMode::kPrecomputed;
    cc.protocol = net::kProtocolVersionV3;
    crypto::SystemRandom id_rng(Block{seed, 0x1DFF});
    cc.v3_state = net::make_v3_client_state(id_rng);
  }

  std::vector<double> total;
  out.inmem_verified = true;
  for (int i = 0; i < kSessions; ++i) {
    auto session = std::make_shared<evloop::EvSession>(ctx);
    cc.channel_factory = [session] {
      return std::make_unique<ShuttleChannel>(session);
    };
    const std::int64_t t0 = now_ns();
    const net::ClientStats st = net::run_client(cc);
    const std::int64_t t1 = now_ns();
    log.add(Span{"evloop.inmem_session", t0, t1, log.next_id(), 0, 0});
    out.inmem_verified = out.inmem_verified && st.verified && session->done();
    if (i > 0) total.push_back(1e-6 * static_cast<double>(t1 - t0));
  }
  out.inmem_session_ms = median(total);
}

}  // namespace

Replay run_replay(const Workload& wl, std::uint64_t seed,
                  const std::string& work_dir, SpanLog& log) {
  Replay out;
  replay_crypto(out, log);
  replay_gc(wl, out, log);
  replay_core(wl, seed, out, log);
  replay_ot(out, log);
  replay_v3_records(wl, seed, work_dir, out, log);
  replay_evloop(wl, seed, out, log);
  return out;
}

}  // namespace perfbench
