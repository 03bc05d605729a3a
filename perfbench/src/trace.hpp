// Span recording for the traced run: an in-memory span log per client
// thread and a timing maxel::proto::Channel decorator that records every client
// send and recv. Spans are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "proto/channel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t session = 0;
};

// Spans of one thread. Ids carry the log's tag in the top 16 bits so
// logs of different threads merge without collisions. Past `detail_cap`
// stored spans, detail spans (the decorator's sends and recvs) are
// counted, not stored; session and layer spans are always kept.
class SpanLog {
 public:
  explicit SpanLog(std::uint16_t tag, std::size_t detail_cap = 1u << 17)
      : tag_(tag), detail_cap_(detail_cap) {}

  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(tag_) << 48) | ++seq_;
  }
  void add(const Span& s) { spans_.push_back(s); }
  void add_detail(const Span& s) {
    if (spans_.size() < detail_cap_)
      spans_.push_back(s);
    else
      ++dropped_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  // One JSON object per line; returns false when the file cannot be
  // written.
  bool append_to(std::FILE* f) const {
    for (const Span& s : spans_) {
      if (std::fprintf(f,
                       "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                       "\"id\":%llu,\"parent\":%llu,\"session\":%llu}\n",
                       s.name, static_cast<long long>(s.start_ns),
                       static_cast<long long>(s.end_ns),
                       static_cast<unsigned long long>(s.id),
                       static_cast<unsigned long long>(s.parent),
                       static_cast<unsigned long long>(s.session)) < 0)
        return false;
    }
    return true;
  }

 private:
  std::uint16_t tag_;
  std::size_t detail_cap_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// Owns the span logs of a run, one per thread, and writes them out as
// JSON lines when the run ends.
class TraceSink {
 public:
  SpanLog& new_log() {
    const std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(
        std::make_unique<SpanLog>(static_cast<std::uint16_t>(logs_.size() + 1)));
    return *logs_.back();
  }
  [[nodiscard]] std::uint64_t spans() const {
    std::uint64_t n = 0;
    for (const auto& l : logs_) n += l->spans().size();
    return n;
  }
  [[nodiscard]] std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& l : logs_) n += l->dropped();
    return n;
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    bool ok = true;
    for (const auto& l : logs_) ok = ok && l->append_to(f);
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// Per-session counters the decorator keeps besides its spans.
struct ChannelTally {
  std::uint64_t records = 0;   // client send bursts (sends then a recv/flush)
  std::int64_t recv_wait_ns = 0;  // time blocked in recv
};

// Decorates the client's channel: each send and recv becomes a span
// under the session's run_client span. Byte counters stay on the
// decorator, which forwards the same bytes to the wrapped channel.
class TimingChannel final : public maxel::proto::Channel {
 public:
  TimingChannel(std::unique_ptr<maxel::proto::Channel> inner, SpanLog& log,
                std::uint64_t session, std::uint64_t parent,
                ChannelTally& tally)
      : inner_(std::move(inner)),
        log_(log),
        session_(session),
        parent_(parent),
        tally_(tally) {}

  void flush() override {
    end_burst();
    inner_->flush();
  }

 protected:
  void raw_send(const std::uint8_t* data, std::size_t n) override {
    const std::int64_t t0 = now_ns();
    inner_->send_bytes(data, n);
    sending_ = true;
    log_.add_detail(Span{"send", t0, now_ns(), log_.next_id(), parent_, session_});
  }
  void raw_recv(std::uint8_t* data, std::size_t n) override {
    end_burst();
    const std::int64_t t0 = now_ns();
    inner_->recv_bytes(data, n);
    const std::int64_t t1 = now_ns();
    tally_.recv_wait_ns += t1 - t0;
    log_.add_detail(Span{"recv", t0, t1, log_.next_id(), parent_, session_});
  }

 private:
  void end_burst() {
    if (sending_) ++tally_.records;
    sending_ = false;
  }

  std::unique_ptr<maxel::proto::Channel> inner_;
  SpanLog& log_;
  std::uint64_t session_;
  std::uint64_t parent_;
  ChannelTally& tally_;
  bool sending_ = false;
};

}  // namespace perfbench
