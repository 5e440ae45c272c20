// Lazily-started coroutine task used for every simulated process and every
// blocking operation inside the simulator.
//
// Task<T> is a single-owner, move-only handle.  `co_await task` starts the
// child and suspends the parent until the child completes; completion resumes
// the parent via symmetric transfer, so arbitrarily deep call chains use O(1)
// native stack.  Exceptions propagate through co_await.
//
// A Task must either be co_awaited or handed to Simulation::spawn; destroying
// a started-but-unfinished Task destroys the whole child chain.
//
// Every frame lives as long as the operation it serves, and at scale every
// rank holds its chain of them at once.  So a function that only forwards to
// another Task returns that Task instead of awaiting it: it is a plain
// function and allocates no frame (Comm::send, the collective dispatchers).
// Its work before the call (argument checks, a collective's sequence number)
// then runs at the call, not at the first resume.  The callee takes every
// parameter by value or by a reference its caller already owns, never one to
// the forwarding function's own by-value parameters, which die at its return.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/frame_pool.hpp"

namespace hcs::sim {

template <typename T>
class Task;

namespace detail {

class TaskPromiseBase {
 public:
  // Route every Task frame through the installed shard's frame pool:
  // blocking-op coroutines are created and destroyed millions of times per
  // simulation, and this turns the malloc/free round-trip into a few
  // pointer moves.
  static void* operator new(std::size_t bytes) { return FramePool::allocate(bytes); }
  static void operator delete(void* p) noexcept { FramePool::deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept { FramePool::deallocate(p); }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation_;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void set_continuation(std::coroutine_handle<> cont) noexcept { continuation_ = cont; }

  void unhandled_exception() noexcept { exception_ = std::current_exception(); }

  void rethrow_if_exception() {
    if (exception_) std::rethrow_exception(exception_);
  }

 private:
  std::coroutine_handle<> continuation_ = nullptr;
  std::exception_ptr exception_ = nullptr;
};

template <typename T>
class TaskPromise final : public TaskPromiseBase {
 public:
  Task<T> get_return_object() noexcept;
  void return_value(T value) noexcept { value_ = std::move(value); }
  T take_value() {
    rethrow_if_exception();
    return std::move(value_);
  }

 private:
  T value_{};
};

template <>
class TaskPromise<void> final : public TaskPromiseBase {
 public:
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void take_value() { rethrow_if_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(handle_type h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return handle_ != nullptr; }
  bool done() const noexcept { return handle_ && handle_.done(); }

  /// Releases ownership of the coroutine handle (used by Simulation::spawn).
  handle_type release() noexcept { return std::exchange(handle_, nullptr); }

  struct Awaiter {
    handle_type child;
    bool await_ready() const noexcept { return !child || child.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      child.promise().set_continuation(parent);
      return child;  // symmetric transfer: start the child now
    }
    T await_resume() { return child.promise().take_value(); }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  handle_type handle_ = nullptr;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>{std::coroutine_handle<TaskPromise<T>>::from_promise(*this)};
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>{std::coroutine_handle<TaskPromise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace hcs::sim
