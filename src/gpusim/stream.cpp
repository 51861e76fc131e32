#include "gpusim/stream.hpp"

#include <atomic>
#include <deque>
#include <thread>

namespace ssam::sim {

namespace detail {

void EventState::signal() {
  std::vector<std::function<void()>> ks;
  {
    std::lock_guard<std::mutex> lock(m);
    done = true;
    ks.swap(continuations);
    cv.notify_all();
  }
  // Continuations run outside the lock: they may take other locks (the
  // server's completion path) or destroy the stream that signalled.
  for (auto& k : ks) k();
}

bool EventState::ready() {
  std::lock_guard<std::mutex> lock(m);
  return done;
}

void EventState::wait() {
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
}

bool EventState::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(m);
  return cv.wait_for(lock, timeout, [&] { return done; });
}

void EventState::on_ready(std::function<void()> k) {
  {
    std::lock_guard<std::mutex> lock(m);
    if (!done) {
      continuations.push_back(std::move(k));
      return;
    }
  }
  k();
}

}  // namespace detail

// ---------------------------------------------------------------- Stream

struct Stream::Impl : std::enable_shared_from_this<Stream::Impl> {
  struct Op {
    std::function<void()> run;
    std::shared_ptr<detail::EventState> done;  ///< signalled after run
  };

  explicit Impl(ThreadPool& p) : pool(p) {}

  ThreadPool& pool;  ///< where drains run
  std::mutex m;
  std::deque<Op> q;
  bool active = false;  ///< a drain is scheduled or running
  std::condition_variable idle_cv;
  /// The thread currently inside drain(), or a default id. Lets
  /// synchronize() detect re-entry from this stream's own drain — an op
  /// body or an event continuation destroying its own Stream — and return
  /// instead of waiting on itself forever.
  std::atomic<std::thread::id> drainer{};

  void schedule() {
    auto self = shared_from_this();
    pool.submit([self] { self->drain(); });
  }

  /// Runs queued ops in order until the queue empties.
  void drain() {
    drainer.store(std::this_thread::get_id(), std::memory_order_relaxed);
    for (;;) {
      Op op;
      {
        std::unique_lock<std::mutex> lock(m);
        if (q.empty()) {
          drainer.store(std::thread::id{}, std::memory_order_relaxed);
          active = false;
          idle_cv.notify_all();
          return;
        }
        op = std::move(q.front());
        q.pop_front();
      }
      op.run();
      // signal() runs `on_ready` continuations inline on this thread; one
      // of them may destroy the owning Stream (see Stream::synchronize).
      op.done->signal();
    }
  }
};

Stream::Stream(ThreadPool& pool) : impl_(std::make_shared<Impl>(pool)) {}

Stream::~Stream() { synchronize(); }

Event Stream::host(std::function<void()> fn) {
  auto done = std::make_shared<detail::EventState>();
  bool need_schedule = false;
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->q.push_back(Impl::Op{std::move(fn), done});
    if (!impl_->active) {
      impl_->active = true;
      need_schedule = true;
    }
  }
  if (need_schedule) impl_->schedule();
  return Event(std::move(done));
}

void Stream::synchronize() {
  // Re-entry from this stream's own drain (op body or event continuation
  // destroying the Stream) would wait on work only this thread can finish.
  // Return instead: the drain loop keeps the impl alive and completes the
  // remaining queued ops after the handle is gone.
  if (impl_->drainer.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
    return;
  }
  std::unique_lock<std::mutex> lock(impl_->m);
  impl_->idle_cv.wait(lock, [&] { return impl_->q.empty() && !impl_->active; });
}

}  // namespace ssam::sim
