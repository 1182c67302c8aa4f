// Single-threaded readiness event loop: the scheduling heart of the network
// plane. One loop thread owns every registered fd and all connection state;
// other threads talk to it only through RunInLoop(), which enqueues a task
// and wakes the loop via a self-pipe. This is the classic
// one-loop-per-thread shape (memcached, muduo, redis): no per-connection
// locks anywhere, because no connection is ever touched off-loop.
//
// Backend: epoll on Linux, poll(2) elsewhere — both level-triggered behind
// the same Register/SetInterest interface, so server.cc is backend-blind.
// Timers are a min-heap consulted for the wait timeout; callbacks run on the
// loop thread between readiness batches.
#ifndef TEMPSPEC_NET_EVENT_LOOP_H_
#define TEMPSPEC_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "util/result.h"

namespace tempspec {

/// \brief Readiness bits delivered to fd callbacks (a callback may receive
/// several OR-ed together).
enum : uint32_t {
  kEventReadable = 1u << 0,
  kEventWritable = 1u << 1,
  /// Error or hangup: the fd should be torn down. Delivered even when not
  /// requested, like EPOLLERR/EPOLLHUP.
  kEventError = 1u << 2,
};

class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// \brief Creates the backend (epoll instance / poll tables) and the
  /// wakeup pipe. Must be called before Run().
  Status Init();

  /// \brief Registers `fd` with an interest mask (kEventReadable |
  /// kEventWritable). The callback runs on the loop thread. Loop thread
  /// only (call before Run(), or from a task/callback).
  Status Register(int fd, uint32_t interest, FdCallback callback);

  /// \brief Changes the interest mask of a registered fd. Loop thread only.
  Status SetInterest(int fd, uint32_t interest);

  /// \brief Removes `fd` from the loop (does not close it). Safe to call
  /// from inside the fd's own callback. Loop thread only.
  void Deregister(int fd);

  /// \brief Enqueues a task for the loop thread and wakes it. Thread-safe;
  /// the only cross-thread entry point. Tasks enqueued from the loop thread
  /// itself still defer to the next iteration (no reentrancy surprises).
  void RunInLoop(Task task);

  /// \brief Schedules `callback` to run on the loop thread after `delay`.
  /// Returns a timer id for CancelTimer. Loop thread only.
  uint64_t AddTimer(std::chrono::milliseconds delay, Task callback);

  /// \brief Cancels a pending timer (no-op when already fired). Loop thread
  /// only.
  void CancelTimer(uint64_t id);

  /// \brief Runs the loop on the calling thread until Stop(). A Stop()
  /// issued after Init() but before Run() makes Run() return at once.
  void Run();

  /// \brief Asks the loop to exit; thread-safe, returns immediately.
  void Stop();

  /// \brief True when called from the thread currently inside Run().
  bool InLoopThread() const {
    return loop_thread_id_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

 private:
  struct Timer {
    std::chrono::steady_clock::time_point when;
    uint64_t id;
    bool operator>(const Timer& other) const {
      return when > other.when || (when == other.when && id > other.id);
    }
  };

  void Wake();
  void DrainWakePipe();
  void RunPendingTasks();
  void RunDueTimers();
  /// \brief Milliseconds until the next timer fires, clamped to [0, cap].
  int WaitTimeoutMs(int cap) const;
  Status BackendAdd(int fd, uint32_t interest);
  Status BackendModify(int fd, uint32_t interest);
  void BackendRemove(int fd);
  /// \brief One backend wait + dispatch pass.
  void PollOnce(int timeout_ms);

  OwnedFd backend_fd_;  // epoll instance (unused by the poll backend)
  OwnedFd wake_read_;
  OwnedFd wake_write_;
  std::unordered_map<int, FdCallback> callbacks_;
  std::unordered_map<int, uint32_t> interests_;  // poll backend rebuilds from this

  std::mutex tasks_mu_;
  std::vector<Task> tasks_;  // guarded by tasks_mu_

  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  std::unordered_map<uint64_t, Task> timer_callbacks_;
  uint64_t next_timer_id_ = 1;

  std::atomic<bool> stop_{false};
  std::atomic<std::thread::id> loop_thread_id_{};
};

}  // namespace tempspec

#endif  // TEMPSPEC_NET_EVENT_LOOP_H_
