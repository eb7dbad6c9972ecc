#include "trace/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "util/json.h"

namespace desync::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// Event name capacity; longer names are truncated.  Sized for the flow's
/// longest pass/counter names with headroom.
constexpr std::size_t kNameCap = 48;

struct Event {
  enum class Kind : std::uint8_t { kBegin, kEnd, kCounter, kInstant };
  Kind kind;
  char name[kNameCap];
  const char* cat;  ///< string literal ("" for counters)
  double ts_us;
  double value;  ///< counters only
};

/// One fixed-size buffer segment.  The owning thread fills `ev` in order
/// and publishes progress through `count` (release); the drain thread
/// reads `count` with acquire and only touches ev[0..count).  `next` is
/// published the same way when the owner starts a new chunk.
struct Chunk {
  static constexpr std::size_t kCapacity = 2048;
  Event ev[kCapacity];
  std::atomic<std::uint32_t> count{0};
  std::atomic<Chunk*> next{nullptr};
};

/// Per-thread event stream.  Owned by the registry (never freed before
/// process exit) so a pool thread's events survive the thread.  All
/// `drained_*` fields belong to the drain side exclusively.
struct ThreadBuf {
  int tid = 0;
  std::string name;  // guarded by the registry mutex
  Chunk* head = nullptr;
  Chunk* tail = nullptr;  // owner-only

  // Drain-side watermark: everything up to (drained_chunk, drained_index)
  // was emitted by a previous finish() and belongs to an older trace.
  Chunk* drained_chunk = nullptr;
  std::uint32_t drained_index = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuf>> bufs;  // guarded by mutex
  int next_tid = 0;                              // guarded by mutex
  std::string path;                              // guarded by mutex
  double t0_us = 0.0;                            // trace start timestamp
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives pool threads
  return *r;
}

thread_local ThreadBuf* tls_buf = nullptr;
thread_local std::string tls_unwound_span;
thread_local bool tls_unwind_recorded = false;

ThreadBuf& threadBuf() {
  if (tls_buf == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    auto* chunk = new Chunk;
    buf->head = buf->tail = chunk;
    buf->drained_chunk = chunk;
    tls_buf = buf.get();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    buf->tid = reg.next_tid++;
    reg.bufs.push_back(std::move(buf));
  }
  return *tls_buf;
}

/// Appends one event to the calling thread's stream (lock-free; the only
/// synchronization is the release publication of the fill count).
void record(Event::Kind kind, std::string_view name, const char* cat,
            double ts_us, double value) {
  ThreadBuf& buf = threadBuf();
  Chunk* tail = buf.tail;
  std::uint32_t n = tail->count.load(std::memory_order_relaxed);
  if (n == Chunk::kCapacity) {
    auto* fresh = new Chunk;
    tail->next.store(fresh, std::memory_order_release);
    buf.tail = tail = fresh;
    n = 0;
  }
  Event& e = tail->ev[n];
  e.kind = kind;
  const std::size_t len = std::min(name.size(), kNameCap - 1);
  std::memcpy(e.name, name.data(), len);
  e.name[len] = '\0';
  e.cat = cat;
  e.ts_us = ts_us;
  e.value = value;
  tail->count.store(n + 1, std::memory_order_release);
}

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

/// Everything finish() knows about one drained track.
struct Track {
  int tid = 0;
  std::string name;
  std::vector<Event> events;  // drained in append order, then ts-sorted
};

/// Matches this track's B/E pairs and computes, per completed span, its
/// duration and the time covered by directly nested spans.
struct SpanAccum {
  double begin_us = 0.0;
  double child_us = 0.0;
  std::string name;
  std::string cat;
};

}  // namespace

void start(std::string path) {
  ThreadBuf& buf = threadBuf();  // the flow runs on the starting thread
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.path = std::move(path);
    reg.t0_us = nowUs();
    if (buf.name.empty()) buf.name = "flow";
  }
  detail::g_enabled.store(true, std::memory_order_release);
}

void startFromEnv() {
  if (enabled()) return;
  const char* env = std::getenv("DESYNC_TRACE");
  if (env != nullptr && env[0] != '\0') start(env);
}

Span::Span(std::string_view name, const char* cat) : active_(enabled()) {
  if (!active_) return;
  tls_unwind_recorded = false;
  record(Event::Kind::kBegin, name, cat, nowUs(), 0.0);
}

Span::~Span() {
  if (!active_) return;
  const double ts = nowUs();
  ThreadBuf& buf = threadBuf();
  // The innermost span an in-flight exception unwinds through is where the
  // failure happened; remember it for post-mortem error reports.
  Chunk* tail = buf.tail;
  const std::uint32_t n = tail->count.load(std::memory_order_relaxed);
  if (std::uncaught_exceptions() > 0 && !tls_unwind_recorded) {
    // Find this span's matching kBegin: the last unmatched one.
    // Cheap scan of the current chunk is enough for a diagnostic; fall
    // back to "?" when the begin rolled into a previous chunk.
    int depth = 0;
    tls_unwound_span = "?";
    for (std::uint32_t i = n; i > 0; --i) {
      const Event& e = tail->ev[i - 1];
      if (e.kind == Event::Kind::kEnd) ++depth;
      if (e.kind == Event::Kind::kBegin) {
        if (depth == 0) {
          tls_unwound_span = e.name;
          break;
        }
        --depth;
      }
    }
    tls_unwind_recorded = true;
  }
  record(Event::Kind::kEnd, "", "", ts, 0.0);
}

TrackScope::TrackScope(std::string name) {
  if (!enabled()) return;  // no-op scope: no track allocated
  active_ = true;
  saved_ = tls_buf;
  tls_buf = nullptr;            // next threadBuf() registers a fresh track
  setThreadName(std::move(name));
}

TrackScope::~TrackScope() {
  if (!active_) return;
  tls_buf = static_cast<ThreadBuf*>(saved_);
}

void completedSpan(std::string_view name, const char* cat, double begin_us,
                   double end_us) {
  if (!enabled()) return;
  // Both events are published with ONE release store, so a concurrent
  // drain (finish() racing a pool worker that claimed no iterations and
  // therefore never synchronizes through the job's done counter) sees the
  // pair completely or not at all — never an unbalanced begin.
  ThreadBuf& buf = threadBuf();
  Chunk* tail = buf.tail;
  std::uint32_t n = tail->count.load(std::memory_order_relaxed);
  if (n + 2 > Chunk::kCapacity) {
    auto* fresh = new Chunk;
    tail->next.store(fresh, std::memory_order_release);
    buf.tail = tail = fresh;
    n = 0;
  }
  Event& b = tail->ev[n];
  b.kind = Event::Kind::kBegin;
  const std::size_t len = std::min(name.size(), kNameCap - 1);
  std::memcpy(b.name, name.data(), len);
  b.name[len] = '\0';
  b.cat = cat;
  b.ts_us = begin_us;
  b.value = 0.0;
  Event& e = tail->ev[n + 1];
  e.kind = Event::Kind::kEnd;
  e.name[0] = '\0';
  e.cat = "";
  e.ts_us = end_us;
  e.value = 0.0;
  tail->count.store(n + 2, std::memory_order_release);
}

void counter(std::string_view name, double value) {
  if (!enabled()) return;
  record(Event::Kind::kCounter, name, "", nowUs(), value);
}

void instant(std::string_view name, const char* cat) {
  if (!enabled()) return;
  record(Event::Kind::kInstant, name, cat, nowUs(), 0.0);
}

double timestampUs() { return nowUs(); }

void setThreadName(std::string name) {
  ThreadBuf& buf = threadBuf();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  buf.name = std::move(name);
}

std::string lastUnwoundSpan() { return tls_unwound_span; }

std::uint64_t peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

Summary finish() {
  Summary summary;
  if (!enabled()) return summary;
  detail::g_enabled.store(false, std::memory_order_release);

  Registry& reg = registry();
  std::vector<Track> tracks;
  double t0_us = 0.0;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    t0_us = reg.t0_us;
    path = reg.path;
    for (const auto& buf : reg.bufs) {
      Track track;
      track.tid = buf->tid;
      track.name = buf->name;
      // Drain from the watermark: events recorded before the most recent
      // start() were already written to an earlier trace file.
      Chunk* chunk = buf->drained_chunk;
      std::uint32_t index = buf->drained_index;
      while (chunk != nullptr) {
        const std::uint32_t n = chunk->count.load(std::memory_order_acquire);
        for (std::uint32_t i = index; i < n; ++i) {
          track.events.push_back(chunk->ev[i]);
        }
        Chunk* next = chunk->next.load(std::memory_order_acquire);
        if (next == nullptr) {
          buf->drained_chunk = chunk;
          buf->drained_index = n;
          break;
        }
        chunk = next;
        index = 0;
      }
      if (!track.events.empty() || !track.name.empty()) {
        tracks.push_back(std::move(track));
      }
    }
  }

  // Buffer order is append order, which is not timestamp order:
  // completedSpan() pairs (a worker's parallel_run, a queue wait) are
  // appended once the span ENDS, after the events of everything that ran
  // inside it.  Spans on one track are temporally well-nested, so a stable
  // per-track sort by timestamp restores both monotonic order and correct
  // LIFO begin/end pairing.
  for (Track& track : tracks) {
    std::stable_sort(
        track.events.begin(), track.events.end(),
        [](const Event& a, const Event& b) { return a.ts_us < b.ts_us; });
  }

  summary.enabled = true;
  summary.file = path;

  // Span statistics: per-pass self time and worker utilization.
  double parallel_for_us = 0.0;  // caller-side section time
  double worker_run_us = 0.0;    // worker-side busy time
  for (const Track& track : tracks) {
    const bool is_worker = track.name.rfind("worker-", 0) == 0;
    if (is_worker) ++summary.worker_tracks;
    std::vector<SpanAccum> stack;
    for (const Event& e : track.events) {
      switch (e.kind) {
        case Event::Kind::kBegin: {
          SpanAccum s;
          s.begin_us = e.ts_us;
          s.name = e.name;
          s.cat = e.cat;
          stack.push_back(std::move(s));
          break;
        }
        case Event::Kind::kEnd: {
          if (stack.empty()) break;  // unmatched E: ignore
          SpanAccum s = std::move(stack.back());
          stack.pop_back();
          const double dur = e.ts_us - s.begin_us;
          ++summary.spans;
          if (!stack.empty()) stack.back().child_us += dur;
          if (s.cat == "pass") {
            summary.pass_self_ms.emplace_back(
                s.name, (dur - s.child_us) / 1000.0);
          } else if (s.cat == "parallel") {
            if (s.name == "parallel_for") parallel_for_us += dur;
            if (is_worker && s.name == "parallel_run") worker_run_us += dur;
          }
          break;
        }
        case Event::Kind::kCounter:
          ++summary.counter_events;
          break;
        case Event::Kind::kInstant:
          break;
      }
    }
    summary.events += track.events.size();
  }
  if (summary.worker_tracks > 0 && parallel_for_us > 0.0) {
    summary.worker_utilization_pct =
        100.0 * worker_run_us / (summary.worker_tracks * parallel_for_us);
  }

  // Chrome trace_event JSON ("JSON Object Format"): metadata first, then
  // each track's events in timestamp order (sorted above);
  // Perfetto/about:tracing sort across tracks globally.
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "trace: cannot write '%s'\n", path.c_str());
    return summary;
  }
  out.precision(3);
  out << std::fixed;
  out << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  // One reused buffer: each statement below escapes at most one name.
  std::string escaped;
  auto esc = [&escaped](std::string_view s) -> const std::string& {
    escaped.clear();
    util::escapeTo(escaped, s);
    return escaped;
  };
  bool first = true;
  auto sep = [&]() -> std::ofstream& {
    if (!first) out << ",\n";
    first = false;
    return out;
  };
  sep() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 0, \"ts\": 0, \"args\": {\"name\": \"drdesync\"}}";
  for (const Track& track : tracks) {
    if (track.name.empty()) continue;
    sep() << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
          << track.tid << ", \"ts\": 0, \"args\": {\"name\": \""
          << esc(track.name) << "\"}}";
  }
  for (const Track& track : tracks) {
    // Names for E events: replay the B/E pairing so each end event carries
    // its begin's name (chrome requires matching names on B/E pairs).
    std::vector<const Event*> stack;
    for (const Event& e : track.events) {
      const double ts = e.ts_us - t0_us;
      switch (e.kind) {
        case Event::Kind::kBegin:
          stack.push_back(&e);
          sep() << "{\"name\": \"" << esc(e.name) << "\", \"cat\": \""
                << e.cat << "\", \"ph\": \"B\", \"pid\": 1, \"tid\": "
                << track.tid << ", \"ts\": " << ts << "}";
          break;
        case Event::Kind::kEnd: {
          if (stack.empty()) break;
          const Event* b = stack.back();
          stack.pop_back();
          sep() << "{\"name\": \"" << esc(b->name) << "\", \"cat\": \""
                << b->cat << "\", \"ph\": \"E\", \"pid\": 1, \"tid\": "
                << track.tid << ", \"ts\": " << ts << "}";
          break;
        }
        case Event::Kind::kCounter:
          sep() << "{\"name\": \"" << esc(e.name)
                << "\", \"ph\": \"C\", \"pid\": 1, \"tid\": " << track.tid
                << ", \"ts\": " << ts << ", \"args\": {\"value\": " << e.value
                << "}}";
          break;
        case Event::Kind::kInstant:
          sep() << "{\"name\": \"" << esc(e.name) << "\", \"cat\": \""
                << e.cat << "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, "
                   "\"tid\": "
                << track.tid << ", \"ts\": " << ts << "}";
          break;
      }
    }
  }
  out << "\n]}\n";
  return summary;
}

}  // namespace desync::trace
