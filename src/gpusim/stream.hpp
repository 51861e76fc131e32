// In-order host-work queues on a thread pool: the dispatch substrate of the
// job server (core/server.hpp).
//
// A `Stream` is a FIFO of host ops bound to one pool — a virtual device's
// slice (gpusim/device.hpp) or the global pool. `Stream::host` enqueues an
// op and returns immediately; ops on one stream execute in order, ops on
// different streams overlap across pool workers. Each op signals an `Event`
// the host can block on (optionally with a timeout) or attach a completion
// continuation to.
//
// Scheduling: each stream drains itself with a single "drain" task on its
// pool, so at most one op per stream runs at a time (stream order), while
// any parallel work *inside* an op fans out over the pool as usual.
//
// Lifetime: a stream may be destroyed from one of its own ops or event
// continuations (the server's completion path does this); the ops still
// queued behind the destroyed handle run to completion.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace ssam::sim {

namespace detail {

/// Shared completion state behind an Event.
struct EventState {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::vector<std::function<void()>> continuations;

  void signal();
  bool ready();
  void wait();
  bool wait_for(std::chrono::milliseconds timeout);
  /// Runs `k` once the event is signalled — immediately if it already is.
  void on_ready(std::function<void()> k);
};

}  // namespace detail

/// Completion marker of work enqueued on a Stream (cudaEvent-like). Cheap
/// shared handle; a default-constructed Event is already signalled.
class Event {
 public:
  Event() = default;

  [[nodiscard]] bool ready() const { return state_ == nullptr || state_->ready(); }

  /// Blocks the calling thread until the event signals.
  void wait() const {
    if (state_ != nullptr) state_->wait();
  }

  /// Blocks up to `timeout`; true when the event signalled in time. The
  /// bounded wait of the fault-tolerance layer's watchdogs and chaos tests
  /// — a hung run turns into a reportable timeout instead of a hung waiter.
  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) const {
    return state_ == nullptr || state_->wait_for(timeout);
  }

  /// Runs `fn` once the event has signalled — immediately on the calling
  /// thread if it already has, otherwise on the thread that signals the
  /// event (the pool worker draining the stream). This is how job futures
  /// complete without a blocked waiter (core/server.hpp). `fn` must not
  /// block; it may destroy the Stream the op ran on — the stream's
  /// destructor detects destruction from its own drain and the remaining
  /// queued ops still run to completion.
  void on_ready(std::function<void()> fn) const {
    if (state_ == nullptr) {
      fn();
      return;
    }
    state_->on_ready(std::move(fn));
  }

 private:
  friend class Stream;
  explicit Event(std::shared_ptr<detail::EventState> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::EventState> state_;
};

/// An in-order asynchronous host-work queue (cudaStream-like).
class Stream {
 public:
  /// A stream whose drains run on `pool`'s workers. This is how a virtual
  /// device (gpusim/device.hpp) owns a stream set — ops routed to a device
  /// never occupy another device's slice. `pool` must outlive the stream.
  explicit Stream(ThreadPool& pool);
  ~Stream();  ///< synchronizes before destruction

  // Not movable: moving away the impl would orphan in-flight ops (no handle
  // left to synchronize work that still writes caller buffers). Heap-allocate
  // streams (unique_ptr) when container storage is needed.
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;
  Stream(Stream&&) = delete;
  Stream& operator=(Stream&&) = delete;

  /// Enqueues host work in stream order; the event signals once it ran.
  Event host(std::function<void()> fn);

  /// Blocks the calling thread until the stream is empty and idle. Called
  /// from inside this stream's own drain (an op body, or an `Event`
  /// continuation run by the drain) it returns immediately instead of
  /// self-deadlocking: the shared impl outlives the handle, so ops already
  /// queued still run even if the Stream object is destroyed there.
  void synchronize();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace ssam::sim
