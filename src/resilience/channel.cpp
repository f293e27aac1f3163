#include "resilience/channel.hpp"

#include <chrono>
#include <thread>

#include "obs/trace.hpp"
#include "resilience/envelope.hpp"
#include "util/error.hpp"

namespace mpas::resilience {

namespace {
using Clock = std::chrono::steady_clock;

Clock::duration from_ms(Real ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<Real, std::milli>(ms));
}
}  // namespace

ResilientChannel::ResilientChannel(Transport& transport, RetryPolicy policy,
                                   bool recover, machine::Network network)
    : transport_(transport),
      policy_(policy),
      recover_(recover),
      network_(network) {
  MPAS_CHECK_MSG(policy.max_attempts >= 1, "max_attempts must be >= 1");
}

void ResilientChannel::send(int from, int to, int tag,
                            std::vector<Real> payload) {
  util::LockGuard lock(mutex_);
  Stream& stream = streams_[Key{from, to, tag}];
  const std::uint64_t seq = stream.next_send_seq++;
  stream.retained = payload;  // keep a copy for retransmission
  stream.retained_seq = seq;
  stats_.sent += 1;
  // Posting happens under the channel lock so a receiver never observes
  // "retained but not yet posted" as a false drop.
  transport_.send(from, to, tag, seal(seq, std::move(payload)));
}

void ResilientChannel::retransmit_locked(const Key& key, Stream& stream) {
  // The bulk-synchronous exchange structure guarantees at most one
  // outstanding message per stream, so the newest retained copy is the one
  // the receiver is missing; anything else is a protocol bug.
  MPAS_CHECK_MSG(stream.retained_seq == stream.next_recv_seq,
                 "retransmit copy superseded on " << key.from << " -> "
                                                  << key.to << " tag "
                                                  << key.tag);
  stats_.retransmits += 1;
  stream.resend_inflight = true;
  MPAS_TRACE_INSTANT_ARGS(
      "resilience:retransmit",
      obs::trace_arg("from", static_cast<std::int64_t>(key.from)) + "," +
          obs::trace_arg("to", static_cast<std::int64_t>(key.to)) + "," +
          obs::trace_arg("tag", static_cast<std::int64_t>(key.tag)) + "," +
          obs::trace_arg("seq",
                         static_cast<std::uint64_t>(stream.retained_seq)));
  transport_.send(key.from, key.to, key.tag,
                  seal(stream.retained_seq, stream.retained));
}

void ResilientChannel::handle_fault_locked(const Key& key, Stream& stream,
                                           const char* what, int& attempts) {
  stats_.modeled_seconds_lost += network_.message_time(
      static_cast<std::int64_t>((stream.retained.size() + kEnvelopeWords) *
                                sizeof(Real)));
  MPAS_CHECK_MSG(recover_, "halo message "
                               << what << ": " << key.from << " -> " << key.to
                               << " tag " << key.tag << " seq "
                               << stream.next_recv_seq
                               << " (recovery disabled)");
  attempts += 1;
  MPAS_CHECK_MSG(attempts <= policy_.max_attempts,
                 "halo message " << what << " persists after "
                                 << policy_.max_attempts << " attempts: "
                                 << key.from << " -> " << key.to << " tag "
                                 << key.tag);
  retransmit_locked(key, stream);
}

std::vector<Real> ResilientChannel::recv(int to, int from, int tag,
                                         std::size_t expected_count) {
  const Key key{from, to, tag};
  const auto deadline = Clock::now() + from_ms(policy_.total_timeout_ms);
  auto patience = Clock::now() + from_ms(policy_.resend_wait_ms);
  int attempts = 1;

  for (;;) {
    util::UniqueLock lock(mutex_);
    Stream& stream = streams_[key];
    if (auto raw = transport_.try_recv(to, from, tag)) {
      auto opened = open(std::move(*raw));
      if (!opened) {
        stats_.detected_corruptions += 1;
        MPAS_TRACE_INSTANT("resilience:corruption_detected");
        // With a resend already in flight for this seq, the wreck is a
        // delayed original that the transport flushed ahead of our live
        // retransmit. Consuming it is enough; posting another retransmit
        // here would count two resends for one recovery. If the in-flight
        // copy was itself lost, the patience path below reposts it.
        if (!stream.resend_inflight) {
          handle_fault_locked(key, stream, "corrupted", attempts);
          patience = Clock::now() + from_ms(policy_.resend_wait_ms);
        }
        continue;
      }
      if (opened->seq < stream.next_recv_seq) {
        // A delayed original or superseded retransmit arriving late.
        stats_.stale_discarded += 1;
        continue;
      }
      MPAS_CHECK_MSG(opened->seq == stream.next_recv_seq,
                     "sequence gap on " << from << " -> " << to << " tag "
                                        << tag << ": got seq " << opened->seq
                                        << ", expected "
                                        << stream.next_recv_seq);
      MPAS_CHECK_MSG(opened->payload.size() == expected_count,
                     "halo payload size mismatch on "
                         << from << " -> " << to << " tag " << tag << ": got "
                         << opened->payload.size() << ", expected "
                         << expected_count);
      stream.next_recv_seq += 1;
      stream.resend_inflight = false;
      stats_.delivered += 1;
      return std::move(opened->payload);
    }

    // Nothing queued: either the message was dropped, or (on a concurrent
    // transport) the sender simply has not posted it yet. The stream's send
    // counter is the proof: the sender only advances it when it posts.
    const bool sender_posted = stream.next_send_seq > stream.next_recv_seq;
    if (sender_posted && Clock::now() >= patience) {
      stats_.detected_drops += 1;
      MPAS_TRACE_INSTANT("resilience:drop_detected");
      handle_fault_locked(key, stream, "dropped", attempts);
      patience = Clock::now() + from_ms(policy_.resend_wait_ms);
      continue;
    }
    lock.unlock();
    MPAS_CHECK_MSG(Clock::now() < deadline,
                   "resilient recv timed out after "
                       << policy_.total_timeout_ms << " ms: " << from << " -> "
                       << to << " tag " << tag);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void ResilientChannel::drain_stale(int to, int from, int tag) {
  util::LockGuard lock(mutex_);
  Stream& stream = streams_[Key{from, to, tag}];
  while (auto raw = transport_.try_recv(to, from, tag)) {
    auto opened = open(std::move(*raw));
    MPAS_CHECK_MSG(!opened || opened->seq < stream.next_recv_seq,
                   "live halo message left behind: " << from << " -> " << to
                                                     << " tag " << tag);
    stats_.stale_discarded += 1;
  }
}

ChannelStats ResilientChannel::stats() const {
  util::LockGuard lock(mutex_);
  return stats_;
}

}  // namespace mpas::resilience
