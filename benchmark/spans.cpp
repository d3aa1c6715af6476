#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <unordered_map>

#include "harness.hpp"

namespace droppkt::benchmark {

std::atomic<SpanRecorder*> SpanRecorder::active_{nullptr};

SpanRecorder::ThreadLog& SpanRecorder::thread_log() {
  thread_local SpanRecorder* owner = nullptr;
  thread_local ThreadLog* log = nullptr;
  if (owner != this) {
    auto fresh = std::make_unique<ThreadLog>();
    const std::lock_guard<std::mutex> lock(mutex_);
    fresh->tid = static_cast<std::uint32_t>(logs_.size() + 1);
    log = fresh.get();
    logs_.push_back(std::move(fresh));
    owner = this;
  }
  return *log;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

std::vector<double> SpanRecorder::durations_us(const char* name,
                                               std::uint64_t phase) const {
  const std::vector<Span> all = spans();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Span& s) { return s.id == phase; });
  std::vector<double> out;
  if (it == all.end()) return out;
  for (const Span& s : all) {
    if (s.start_ns >= it->start_ns && s.start_ns <= it->end_ns &&
        std::string_view(s.name) == name) {
      out.push_back(s.us());
    }
  }
  return out;
}

void SpanRecorder::print_summary() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) children[s.parent].push_back(&s);
  struct Row {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::vector<double> us;
  };
  std::map<std::string_view, Row> rows;
  for (const Span& s : all) {
    // Union of the children's intervals clipped to this span: concurrent
    // children on several threads must not count twice.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      if (b <= reach) continue;
      covered += b - std::max(a, reach);
      reach = b;
    }
    Row& r = rows[s.name];
    ++r.count;
    r.total_us += s.us();
    r.self_us += s.us() - static_cast<double>(covered) / 1e3;
    r.us.push_back(s.us());
  }
  std::printf("\nper-layer span summary (benchmark-side spans around public "
              "calls)\n");
  std::printf("%-34s %9s %12s %12s %11s %11s\n", "span", "count", "total ms",
              "self ms", "mean us", "p99 us");
  for (auto& [name, r] : rows) {
    std::printf("%-34.*s %9zu %12.3f %12.3f %11.3f %11.3f\n",
                static_cast<int>(name.size()), name.data(), r.count,
                r.total_us / 1e3, r.self_us / 1e3,
                r.total_us / static_cast<double>(r.count),
                percentile(std::move(r.us), 0.99));
  }
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"droppkt\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                 s.us(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, bool phase)
    : recorder_(SpanRecorder::active()), phase_(phase) {
  if (recorder_ == nullptr) return;
  log_ = &recorder_->thread_log();
  span_.name = name;
  span_.tid = log_->tid;
  span_.id = (std::uint64_t{log_->tid} << 40) | log_->next_seq++;
  span_.parent = log_->open != 0
                     ? log_->open
                     : recorder_->phase_.load(std::memory_order_acquire);
  saved_open_ = log_->open;
  log_->open = span_.id;
  if (phase_) {
    saved_phase_ =
        recorder_->phase_.exchange(span_.id, std::memory_order_acq_rel);
  }
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = now_ns();
  log_->open = saved_open_;
  if (phase_) recorder_->phase_.store(saved_phase_, std::memory_order_release);
  log_->spans.push_back(span_);
}

}  // namespace droppkt::benchmark
