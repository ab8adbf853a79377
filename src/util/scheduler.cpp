#include "util/scheduler.hpp"

#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mk {

// ---------------------------------------------------------------- SimScheduler

TimerId SimScheduler::schedule_at(TimePoint t, std::function<void()> fn) {
  MK_ASSERT(fn != nullptr);
  if (t < now_) t = now_;  // never schedule into the past
  const TimerId id = next_seq_++;
  if (backend_ == SimBackend::kWheel) {
    wheel_.insert(t.us, id, std::move(fn));
  } else {
    Key key{t.us, id};
    queue_.emplace(key, std::move(fn));
    by_id_.emplace(id, key);
  }
  return id;
}

bool SimScheduler::cancel(TimerId id) {
  if (backend_ == SimBackend::kWheel) return wheel_.cancel(id);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  queue_.erase(it->second);
  by_id_.erase(it);
  return true;
}

bool SimScheduler::event_due(std::int64_t limit_us) {
  if (backend_ == SimBackend::kWheel) return wheel_.peek(limit_us).has_value();
  return !queue_.empty() && queue_.begin()->first.us <= limit_us;
}

bool SimScheduler::step() {
  Key key;
  std::function<void()> fn;
  if (backend_ == SimBackend::kWheel) {
    TimerWheel::Key k;
    if (!wheel_.pop(k, fn)) return false;
    key = Key{k.us, k.seq};
  } else {
    if (queue_.empty()) return false;
    auto it = queue_.begin();
    key = it->first;
    fn = std::move(it->second);
    queue_.erase(it);
    by_id_.erase(key.seq);
  }
  now_ = TimePoint{key.us};
  if (fire_hook_) fire_hook_(key.seq, now_);
  if (fault_trap_) {
    try {
      fn();
    } catch (...) {
      if (!fault_trap_(std::current_exception())) throw;
    }
  } else {
    fn();
  }
  return true;
}

void SimScheduler::run_until(TimePoint t) {
  // Bounded peeks keep the wheel cursor at or behind t, so whatever the
  // caller arms after this returns lands at or ahead of the cursor.
  while (event_due(t.us)) step();
  if (now_ < t) now_ = t;
}

std::size_t SimScheduler::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

// ----------------------------------------------------------- RealTimeScheduler

RealTimeScheduler::RealTimeScheduler()
    : epoch_(std::chrono::steady_clock::now()), thread_([this] { run(); }) {}

RealTimeScheduler::~RealTimeScheduler() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

TimePoint RealTimeScheduler::now() const {
  auto d = std::chrono::steady_clock::now() - epoch_;
  return TimePoint{
      std::chrono::duration_cast<std::chrono::microseconds>(d).count()};
}

TimerId RealTimeScheduler::schedule_at(TimePoint t, std::function<void()> fn) {
  MK_ASSERT(fn != nullptr);
  TimerId id;
  {
    std::scoped_lock lock(mutex_);
    Key key{t.us, next_seq_++};
    id = key.seq;
    queue_.emplace(key, std::move(fn));
    by_id_.emplace(id, key);
  }
  cv_.notify_all();
  return id;
}

bool RealTimeScheduler::cancel(TimerId id) {
  std::scoped_lock lock(mutex_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  queue_.erase(it->second);
  by_id_.erase(it);
  return true;
}

void RealTimeScheduler::run() {
  std::unique_lock lock(mutex_);
  while (!stop_) {
    if (queue_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      continue;
    }
    auto deadline = epoch_ + std::chrono::microseconds(queue_.begin()->first.us);
    if (std::chrono::steady_clock::now() < deadline) {
      cv_.wait_until(lock, deadline);
      continue;
    }
    auto it = queue_.begin();
    Key key = it->first;
    auto fn = std::move(it->second);
    queue_.erase(it);
    by_id_.erase(key.seq);
    lock.unlock();
    fn();
    lock.lock();
  }
}

}  // namespace mk
