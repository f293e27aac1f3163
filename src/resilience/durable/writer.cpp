#include "resilience/durable/writer.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"

namespace mpas::resilience::durable {

DurableWriter::DurableWriter(DurableStore& store) : store_(store) {
  thread_ = std::thread([this] { loop(); });
}

DurableWriter::~DurableWriter() {
  {
    util::LockGuard lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DurableWriter::submit(CheckpointImage image) {
  {
    util::LockGuard lock(mutex_);
    if (staged_.has_value()) {
      // Latest-wins: the disk is behind the integrator; recovery only ever
      // wants the newest state, so the stale staged image is dead weight.
      dropped_ += 1;
      obs::MetricsRegistry::global()
          .counter("resilience.durable.dropped")
          .add(1);
    }
    staged_ = std::move(image);
  }
  work_cv_.notify_one();
}

bool DurableWriter::flush(long timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  util::UniqueLock lock(mutex_);
  while (staged_.has_value() || writing_) {
    if (idle_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        (staged_.has_value() || writing_))
      return false;
  }
  return true;
}

std::uint64_t DurableWriter::published() const {
  util::LockGuard lock(mutex_);
  return published_;
}

std::uint64_t DurableWriter::dropped() const {
  util::LockGuard lock(mutex_);
  return dropped_;
}

void DurableWriter::loop() {
  for (;;) {
    CheckpointImage image;
    {
      util::UniqueLock lock(mutex_);
      while (!staged_.has_value() && !shutdown_) work_cv_.wait(lock);
      if (!staged_.has_value() && shutdown_) return;
      image = std::move(*staged_);
      staged_.reset();
      writing_ = true;
    }
    // Publish strictly outside the lock: the fsync protocol is file I/O.
    const PublishResult result = store_.publish(image);
    {
      util::LockGuard lock(mutex_);
      writing_ = false;
      if (result.published) published_ += 1;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace mpas::resilience::durable
