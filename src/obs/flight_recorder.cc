#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics.h"

namespace tempspec {

bool FlightRecorderCompiledIn() {
#ifdef TEMPSPEC_FLIGHTRECORDER
  return true;
#else
  return false;
#endif
}

const char* FlightCategoryToString(FlightCategory category) {
  switch (category) {
    case FlightCategory::kWal: return "wal";
    case FlightCategory::kPage: return "page";
    case FlightCategory::kCheckpoint: return "checkpoint";
    case FlightCategory::kRecovery: return "recovery";
    case FlightCategory::kCompaction: return "compaction";
    case FlightCategory::kFault: return "fault";
    case FlightCategory::kPlan: return "plan";
    case FlightCategory::kDrift: return "drift";
    case FlightCategory::kAdvisor: return "advisor";
    case FlightCategory::kServer: return "server";
  }
  return "unknown";
}

const char* FlightCodeToString(FlightCode code) {
  switch (code) {
    case FlightCode::kWalAppend: return "wal.append";
    case FlightCode::kWalSync: return "wal.sync";
    case FlightCode::kWalReset: return "wal.reset";
    case FlightCode::kPageRead: return "page.read";
    case FlightCode::kPageWrite: return "page.write";
    case FlightCode::kDiskSync: return "disk.sync";
    case FlightCode::kCheckpointBegin: return "checkpoint.begin";
    case FlightCode::kCheckpointEnd: return "checkpoint.end";
    case FlightCode::kRecoveryBegin: return "recovery.begin";
    case FlightCode::kRecoveryPages: return "recovery.pages";
    case FlightCode::kRecoveryQuarantine: return "recovery.quarantine";
    case FlightCode::kRecoveryWalReplay: return "recovery.wal_replay";
    case FlightCode::kRecoveryEnd: return "recovery.end";
    case FlightCode::kCompactionBegin: return "compaction.begin";
    case FlightCode::kCompactionRename: return "compaction.rename";
    case FlightCode::kCompactionEnd: return "compaction.end";
    case FlightCode::kFaultInject: return "fault.inject";
    case FlightCode::kCrashLatch: return "fault.crash_latch";
    case FlightCode::kPlanChoice: return "plan.choice";
    case FlightCode::kDriftVerdict: return "drift.verdict";
    case FlightCode::kAdvisorNote: return "advisor.note";
    case FlightCode::kServerStart: return "server.start";
    case FlightCode::kServerStop: return "server.stop";
    case FlightCode::kServerAccept: return "server.accept";
    case FlightCode::kServerReject: return "server.reject";
    case FlightCode::kServerRequest: return "server.request";
    case FlightCode::kServerDeadline: return "server.deadline";
  }
  return "unknown";
}

uint32_t ThisThreadFlightId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

uint64_t SteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// ---- async-signal-safe formatting helpers (DumpToFd) ----

size_t AppendLiteral(char* buf, size_t pos, size_t cap, const char* s) {
  while (*s != '\0' && pos < cap) buf[pos++] = *s++;
  return pos;
}

size_t AppendU64(char* buf, size_t pos, size_t cap, uint64_t v) {
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && pos < cap) buf[pos++] = digits[--n];
  return pos;
}

size_t AppendI64(char* buf, size_t pos, size_t cap, int64_t v) {
  uint64_t mag;
  if (v < 0) {
    if (pos < cap) buf[pos++] = '-';
    // Negate via unsigned arithmetic so INT64_MIN is handled.
    mag = ~static_cast<uint64_t>(v) + 1;
  } else {
    mag = static_cast<uint64_t>(v);
  }
  return AppendU64(buf, pos, cap, mag);
}

}  // namespace

std::string FlightEvent::ToJson() const {
  std::string out = "{\"seq\":" + std::to_string(seq) +
                    ",\"nanos\":" + std::to_string(nanos) +
                    ",\"tid\":" + std::to_string(thread_id) + ",\"category\":\"" +
                    FlightCategoryToString(category) + "\",\"code\":\"" +
                    FlightCodeToString(code) +
                    "\",\"arg0\":" + std::to_string(arg0) +
                    ",\"arg1\":" + std::to_string(arg1) + ",\"detail\":\"" +
                    JsonEscape(detail) + "\"}";
  return out;
}

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* recorder = [] {
    size_t capacity = 4096;
    if (const char* v = std::getenv("TEMPSPEC_FLIGHT_CAPACITY")) {
      if (*v != '\0') {
        char* end = nullptr;
        unsigned long long parsed = std::strtoull(v, &end, 10);
        if (end != v && parsed > 0) {
          capacity = static_cast<size_t>(parsed);
          if (capacity < 64) capacity = 64;
          if (capacity > (1u << 20)) capacity = 1u << 20;
        }
      }
    }
    return new FlightRecorder(capacity);  // leaked: process lifetime
  }();
  return *recorder;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(RoundUpPow2(capacity < 2 ? 2 : capacity)) {
  mask_ = slots_.size() - 1;
}

void FlightRecorder::Record(FlightCategory category, FlightCode code,
                            int64_t arg0, int64_t arg1,
                            std::string_view detail) {
  const uint64_t nanos = SteadyNanos();
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];

  // Wait for the slot's previous generation to commit. Writers reach the
  // same slot `capacity` claims apart, so this only ever spins when a
  // writer lapped the whole ring while an earlier writer sat suspended
  // mid-record — without the wait, that interleaving could commit a slot
  // whose payload mixes two events.
  const uint64_t expected =
      seq >= slots_.size() ? 2 * (seq - slots_.size()) + 2 : 0;
  int spins = 0;
  while (slot.state.load(std::memory_order_acquire) != expected) {
    if (++spins > 64) std::this_thread::yield();
  }

  slot.state.store(2 * seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.word[0].store(nanos, std::memory_order_relaxed);
  slot.word[1].store((static_cast<uint64_t>(ThisThreadFlightId()) << 32) |
                         (static_cast<uint64_t>(category) << 8) |
                         static_cast<uint64_t>(code),
                     std::memory_order_relaxed);
  slot.word[2].store(static_cast<uint64_t>(arg0), std::memory_order_relaxed);
  slot.word[3].store(static_cast<uint64_t>(arg1), std::memory_order_relaxed);
  for (size_t w = 0; w < 3; ++w) {
    uint64_t packed = 0;
    for (size_t b = 0; b < 8; ++b) {
      const size_t i = w * 8 + b;
      if (i < detail.size() && i < kFlightDetailBytes) {
        packed |= static_cast<uint64_t>(static_cast<unsigned char>(detail[i]))
                  << (8 * b);
      }
    }
    slot.word[4 + w].store(packed, std::memory_order_relaxed);
  }
  slot.state.store(2 * seq + 2, std::memory_order_release);
}

bool FlightRecorder::ReadSlotWords(uint64_t seq, uint64_t words[7]) const {
  const Slot& slot = slots_[seq & mask_];
  const uint64_t committed = 2 * seq + 2;
  if (slot.state.load(std::memory_order_acquire) != committed) return false;
  for (size_t i = 0; i < 7; ++i) {
    words[i] = slot.word[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.state.load(std::memory_order_relaxed) == committed;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t head = next_.load(std::memory_order_acquire);
  const uint64_t cap = slots_.size();
  const uint64_t lo = head > cap ? head - cap : 0;
  std::vector<FlightEvent> events;
  events.reserve(static_cast<size_t>(head - lo));
  uint64_t words[7];
  for (uint64_t seq = lo; seq < head; ++seq) {
    if (!ReadSlotWords(seq, words)) continue;  // overwritten or in flight
    FlightEvent e;
    e.seq = seq;
    e.nanos = words[0];
    e.thread_id = static_cast<uint32_t>(words[1] >> 32);
    e.category = static_cast<FlightCategory>((words[1] >> 8) & 0xff);
    e.code = static_cast<FlightCode>(words[1] & 0xff);
    e.arg0 = static_cast<int64_t>(words[2]);
    e.arg1 = static_cast<int64_t>(words[3]);
    char detail[kFlightDetailBytes];
    for (size_t i = 0; i < kFlightDetailBytes; ++i) {
      detail[i] = static_cast<char>((words[4 + i / 8] >> (8 * (i % 8))) & 0xff);
    }
    size_t len = 0;
    while (len < kFlightDetailBytes && detail[len] != '\0') ++len;
    e.detail.assign(detail, len);
    events.push_back(std::move(e));
  }
  return events;
}

std::string FlightRecorder::ToJsonl() const {
  std::string out;
  for (const FlightEvent& e : Snapshot()) {
    out += e.ToJson();
    out += "\n";
  }
  return out;
}

void FlightRecorder::DumpToFd(int fd) const {
  const uint64_t head = next_.load(std::memory_order_acquire);
  const uint64_t cap = slots_.size();
  const uint64_t lo = head > cap ? head - cap : 0;
  uint64_t words[7];
  char line[320];
  for (uint64_t seq = lo; seq < head; ++seq) {
    if (!ReadSlotWords(seq, words)) continue;
    size_t pos = 0;
    const size_t max = sizeof(line) - 1;
    pos = AppendLiteral(line, pos, max, "{\"seq\":");
    pos = AppendU64(line, pos, max, seq);
    pos = AppendLiteral(line, pos, max, ",\"nanos\":");
    pos = AppendU64(line, pos, max, words[0]);
    pos = AppendLiteral(line, pos, max, ",\"tid\":");
    pos = AppendU64(line, pos, max, words[1] >> 32);
    pos = AppendLiteral(line, pos, max, ",\"category\":\"");
    pos = AppendLiteral(
        line, pos, max,
        FlightCategoryToString(
            static_cast<FlightCategory>((words[1] >> 8) & 0xff)));
    pos = AppendLiteral(line, pos, max, "\",\"code\":\"");
    pos = AppendLiteral(line, pos, max,
                        FlightCodeToString(static_cast<FlightCode>(words[1] &
                                                                   0xff)));
    pos = AppendLiteral(line, pos, max, "\",\"arg0\":");
    pos = AppendI64(line, pos, max, static_cast<int64_t>(words[2]));
    pos = AppendLiteral(line, pos, max, ",\"arg1\":");
    pos = AppendI64(line, pos, max, static_cast<int64_t>(words[3]));
    pos = AppendLiteral(line, pos, max, ",\"detail\":\"");
    for (size_t i = 0; i < kFlightDetailBytes && pos < max; ++i) {
      const char c =
          static_cast<char>((words[4 + i / 8] >> (8 * (i % 8))) & 0xff);
      if (c == '\0') break;
      // Keep the signal path trivial: anything that would need JSON
      // escaping is replaced, not escaped.
      line[pos++] =
          (c < 0x20 || c == '"' || c == '\\' || c == 0x7f) ? '_' : c;
    }
    pos = AppendLiteral(line, pos, max, "\"}");
    line[pos++] = '\n';
    size_t off = 0;
    while (off < pos) {
      const ssize_t n = ::write(fd, line + off, pos - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;
      }
      off += static_cast<size_t>(n);
    }
  }
}

Status FlightRecorder::DumpToFile(const std::string& path) const {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot write flight dump '", path, "': ",
                           std::strerror(errno));
  }
  DumpToFd(fd);
  ::close(fd);
  return Status::OK();
}

namespace {

char g_flight_dump_path[512] = {0};

void FlightFatalHandler(int signo) {
  const int saved_errno = errno;
  const int fd = ::open(g_flight_dump_path,
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd >= 0) {
    FlightRecorder::Instance().DumpToFd(fd);
    ::close(fd);
  }
  errno = saved_errno;
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // still dies (and dumps core) the way it would have without the recorder.
  ::raise(signo);
}

}  // namespace

void FlightRecorder::InstallCrashHandler(const char* path) {
  if (path == nullptr || *path == '\0') return;
  std::strncpy(g_flight_dump_path, path, sizeof(g_flight_dump_path) - 1);
  g_flight_dump_path[sizeof(g_flight_dump_path) - 1] = '\0';
  // Touch the instance now: the first Instance() call allocates, which the
  // signal handler must never do.
  Instance();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = FlightFatalHandler;
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  const int signals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGILL, SIGFPE};
  for (int signo : signals) {
    ::sigaction(signo, &action, nullptr);
  }
}

void FlightRecorder::MaybeInstallFromEnv() {
  if (const char* path = std::getenv("TEMPSPEC_FLIGHT_DUMP")) {
    InstallCrashHandler(path);
  }
}

}  // namespace tempspec
