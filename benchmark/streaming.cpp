#include "streaming.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <span>

#include "spans.hpp"
#include "telemetry/clock.hpp"

namespace droppkt::benchmark {

namespace {

constexpr std::size_t kBatch = 256;
constexpr auto kSampleEvery = std::chrono::milliseconds(100);
/// Records of sessions kept from the oracle for the per-layer runs.
constexpr std::size_t kSampleRecords = 200'000;

engine::EngineConfig wired(const StreamSetup& setup, engine::AlertSink* sink,
                           telemetry::MetricRegistry* registry) {
  engine::EngineConfig cfg = setup.engine;
  cfg.alert_sink = sink;
  cfg.registry = registry;
  return cfg;
}

std::string canonical_alerts(const std::vector<alert::AlertEvent>& log) {
  std::string out;
  char buf[256];
  for (const auto& e : log) {
    std::snprintf(buf, sizeof(buf), "%s|%llu|%s|%.17g|%.17g|%.17g|%.17g\n",
                  e.kind == alert::AlertEvent::Kind::kRaised ? "R" : "C",
                  static_cast<unsigned long long>(e.id), e.location.c_str(),
                  e.time_s, e.rate_low, e.rate_high, e.effective_sessions);
    out += buf;
  }
  return out;
}

/// Size of the symmetric difference of two sorted multisets.
std::uint64_t multiset_difference(const std::vector<std::string>& a,
                                  const std::vector<std::string>& b) {
  std::vector<std::string> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  return diff.size();
}

/// What the benchmark's session sink keeps per verdict; formatted after the
/// run so the sink (called under the engine's sink mutex) stays cheap.
struct SessionReceipt {
  std::string client;
  std::size_t records;
  int predicted;
  double confidence, start_s, end_s, detected_s;
  std::int64_t recv_ns;
};

struct ProvisionalReceipt {
  double last_activity_s;
  std::int64_t recv_ns;
};

}  // namespace

std::string session_line(std::string_view client, std::size_t records,
                         int predicted, double confidence, double start_s,
                         double end_s, double detected_s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.*s|%zu|%d|%.17g|%.17g|%.17g|%.17g",
                static_cast<int>(client.size()), client.data(), records,
                predicted, confidence, start_s, end_s, detected_s);
  return buf;
}

// ---------------------------------------------------------------------------
// TimedAlertSink / Deployment
// ---------------------------------------------------------------------------

void TimedAlertSink::on_provisional(std::size_t shard,
                                    const core::ProvisionalEstimate& estimate) {
  const ScopedSpan span("alert.on_provisional");
  inner_.on_provisional(shard, estimate);
}

void TimedAlertSink::on_session(std::size_t shard,
                                const core::MonitoredSessionView& session,
                                bool at_close) {
  const ScopedSpan span("alert.on_session");
  inner_.on_session(shard, session, at_close);
}

void TimedAlertSink::on_watermark(std::size_t shard, double watermark_s) {
  const ScopedSpan span("alert.on_watermark");
  inner_.on_watermark(shard, watermark_s);
}

void TimedAlertSink::on_finish() {
  const ScopedSpan span("alert.on_finish");
  inner_.on_finish();
}

Deployment::Deployment(const core::QoeEstimator& estimator,
                       const StreamSetup& setup,
                       engine::IngestEngine::SessionSink sessions,
                       engine::IngestEngine::ProvisionalSink provisionals)
    : pipeline_(setup.alerts),
      engine_(estimator, std::move(sessions), std::move(provisionals),
              wired(setup, &timed_, &registry_)),
      streamer_(registry_, telemetry::monotonic_clock()),
      wire_(streamer_.header_frame()),
      header_bytes_(wire_.size()) {
  sampler_ = std::thread([this] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (wake_.wait_for(lock, kSampleEvery, [this] { return stop_; })) break;
      lock.unlock();
      sample();
    }
    sample();
  });
}

Deployment::~Deployment() { finish(); }

void Deployment::sample() {
  {
    const ScopedSpan span("telemetry.refresh_gauges");
    engine_.refresh_gauges();
  }
  {
    const ScopedSpan span("telemetry.tick");
    streamer_.tick();
  }
  const ScopedSpan span("telemetry.poll");
  streamer_.poll(wire_);
}

void Deployment::finish() {
  engine_.finish();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

Oracle run_oracle(const core::QoeEstimator& estimator, const Inputs& in) {
  Oracle o;
  alert::AlertPipeline pipeline(in.stream.alerts);
  pipeline.bind(1);
  const core::MonitorConfig& mcfg = in.stream.engine.monitor;
  bool draining = false;
  std::int64_t other_ns = 0;  // alert calls and bookkeeping, not monitor work
  std::size_t sample_records = 0;
  core::StreamingMonitor monitor(
      core::StreamingMonitor::ViewSinkTag{}, estimator,
      [&](const core::MonitoredSessionView& s) {
        const std::int64_t t0 = now_ns();
        {
          const ScopedSpan span("alert.on_session");
          pipeline.on_session(0, s, draining);
        }
        std::string line =
            session_line(s.client, s.records.size(), s.predicted_class,
                         s.confidence, s.start_s, s.end_s, s.detected_s);
        if (draining) o.at_close.push_back(line);
        o.sessions.push_back(std::move(line));
        if (sample_records < kSampleRecords && !s.records.empty()) {
          trace::TlsLog log;
          log.reserve(s.records.size());
          const double t_first = s.records.front().start_s;
          for (const core::TlsRecord& r : s.records) {
            log.push_back({r.start_s - t_first, r.end_s - t_first, r.ul_bytes,
                           r.dl_bytes, {}, r.http_count});
          }
          sample_records += log.size();
          o.sample_logs.push_back(std::move(log));
          o.sample_clients.emplace_back(s.client);
        }
        other_ns += now_ns() - t0;
      },
      mcfg);
  monitor.set_provisional_callback([&](const core::ProvisionalEstimate& e) {
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span("alert.on_provisional");
      pipeline.on_provisional(0, e);
    }
    ++o.provisionals;
    other_ns += now_ns() - t0;
  });

  const double interval = in.stream.engine.watermark_interval_s;
  std::optional<ScopedSpan> phase(std::in_place, "layer.monitor",
                                  /*phase=*/true);
  const std::int64_t start = now_ns();
  double last_watermark = 0.0;
  bool saw_record = false;
  for (const engine::FeedRecord& r : in.feed) {
    const double t = r.txn.start_s;
    if (!saw_record || t - last_watermark >= interval) {
      last_watermark = t;
      saw_record = true;
      const std::int64_t a = now_ns();
      const std::int64_t other_before = other_ns;
      {
        const ScopedSpan span("monitor.advance_time");
        monitor.advance_time(t);
      }
      const std::int64_t b = now_ns();
      o.advance_us.push_back(
          static_cast<double>(b - a - (other_ns - other_before)) / 1e3);
      {
        const ScopedSpan span("alert.on_watermark");
        pipeline.on_watermark(0, t);
      }
      other_ns += now_ns() - b;
    }
    monitor.observe(r.client, r.txn);
  }
  draining = true;
  monitor.finish();
  o.monitor_s = static_cast<double>(now_ns() - start - other_ns) / 1e9;
  phase.reset();
  pipeline.on_finish();
  std::sort(o.sessions.begin(), o.sessions.end());
  std::sort(o.at_close.begin(), o.at_close.end());
  o.alert_log = pipeline.log_snapshot();
  o.alerts = canonical_alerts(o.alert_log);
  return o;
}

// ---------------------------------------------------------------------------
// Engine runs
// ---------------------------------------------------------------------------

EngineRun run_engine(const core::QoeEstimator& estimator, const Inputs& in,
                     double rate, const Oracle& oracle) {
  EngineRun run;
  run.rate = rate;
  const engine::Feed& feed = in.feed;
  run.offered = feed.size();
  const std::int64_t heap_base = reset_heap_peak();
  std::vector<SessionReceipt> sessions;
  sessions.reserve(oracle.sessions.size());
  std::vector<ProvisionalReceipt> provisionals;
  provisionals.reserve(oracle.provisionals);
  engine::IngestEngine::ProvisionalSink provisional_sink;
  if (in.stream.engine.monitor.provisional_every > 0) {
    provisional_sink = [&provisionals](const core::ProvisionalEstimate& e) {
      const std::int64_t t = now_ns();
      const ScopedSpan span("sink.provisional");
      provisionals.push_back({e.last_activity_s, t});
    };
  }
  Deployment dep(
      estimator, in.stream,
      [&sessions](const core::MonitoredSessionView& s) {
        const std::int64_t t = now_ns();
        const ScopedSpan span("sink.session");
        sessions.push_back({std::string(s.client), s.records.size(),
                            s.predicted_class, s.confidence, s.start_s,
                            s.end_s, s.detected_s, t});
      },
      std::move(provisional_sink));
  engine::IngestEngine& eng = dep.engine();

  const std::size_t n = feed.size();
  const Schedule schedule(feed.front().txn.start_s, feed.back().txn.start_s,
                          n, rate);
  // When each record was offered to the engine: its due time if it fell
  // due while the engine held the generator inside ingest_batch (a stall
  // the system imposed), else the moment it was handed over. The
  // generator's own wake-up lateness is thus not charged to the system; it
  // is reported as loadgen lag instead.
  std::vector<std::int64_t> offered_ns(rate > 0.0 ? n : 0);
  std::int64_t t0 = 0;
  {
    const ScopedSpan phase(rate > 0.0 ? "run.paced" : "run.line_rate",
                           /*phase=*/true);
    run.phase_span = phase.id();
    const double cpu0 = process_cpu_s();
    t0 = now_ns();
    std::int64_t released = 0;  // when the last ingest_batch returned
    std::int64_t wait_ns = 0;   // generator waiting for records to fall due
    for (std::size_t i = 0; i < n;) {
      std::size_t j = std::min(n, i + kBatch);
      if (rate > 0.0) {
        const std::int64_t now = now_ns() - t0;
        j = i;
        while (j < n && j - i < kBatch &&
               schedule.due_ns(feed[j].txn.start_s) <= now) {
          ++j;
        }
        if (j == i) {
          // Ahead of schedule: yield until the record falls due. A sleep
          // lets the generator's vCPU halt, and on a shared KVM host waking
          // it took 1-4 ms a few times a second; the overdue records then
          // went out as one burst whose queueing set the p99. The wait is
          // the benchmark's own work, so it is taken out of the CPU time.
          const std::int64_t due = t0 + schedule.due_ns(feed[i].txn.start_s);
          const std::int64_t wait0 = now_ns();
          while (now_ns() < due) std::this_thread::yield();
          wait_ns += now_ns() - wait0;
          continue;
        }
        for (std::size_t k = i; k < j; ++k) {
          const std::int64_t due = schedule.due_ns(feed[k].txn.start_s);
          offered_ns[k] = due <= released ? due : now;
        }
        run.lag_us.push_back(
            static_cast<double>(
                lateness_ns(now, schedule.due_ns(feed[i].txn.start_s))) /
            1e3);
        if (j == n) {
          run.end_lag_us = static_cast<double>(lateness_ns(
                               now, schedule.due_ns(feed[n - 1].txn.start_s))) /
                           1e3;
        }
      }
      {
        const ScopedSpan span("engine.ingest_batch");
        eng.ingest_batch(std::span<const engine::FeedRecord>(&feed[i], j - i));
      }
      released = now_ns() - t0;
      i = j;
    }
    {
      const ScopedSpan span("engine.finish");
      eng.finish();
    }
    run.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    run.cpu_s = process_cpu_s() - cpu0 - static_cast<double>(wait_ns) / 1e9;
  }
  dep.finish();
  run.peak_heap_mib =
      static_cast<double>(heap_peak_bytes() - heap_base) / (1 << 20);
  run.stats = eng.stats();
  run.intervals = dep.intervals();
  run.dropped_intervals = dep.dropped_intervals();
  run.interval_bytes = dep.interval_bytes();
  run.tracked_locations = dep.pipeline().tracked_locations();
  run.alerts = canonical_alerts(dep.pipeline().log_snapshot());
  run.provisionals = provisionals.size();

  // A verdict's trigger instant is the start time of a feed record (the
  // record or watermark that closed the session, or the provisional's
  // newest record); latency runs from when that record was offered.
  const auto offered_at = [&](double feed_s) {
    const auto it = std::lower_bound(
        feed.begin(), feed.end(), feed_s,
        [](const engine::FeedRecord& r, double t) { return r.txn.start_s < t; });
    return it != feed.end() && it->txn.start_s == feed_s
               ? offered_ns[static_cast<std::size_t>(it - feed.begin())]
               : schedule.due_ns(feed_s);
  };
  // (receipt time, latency) of every timed verdict, put in receipt order
  // so that latency windows are stretches of the run.
  std::vector<std::pair<std::int64_t, double>> timed;
  const auto time_verdict = [&](std::int64_t recv_ns, double trigger_s) {
    timed.emplace_back(recv_ns, static_cast<double>(recv_ns - t0 -
                                                    offered_at(trigger_s)) /
                                    1e3);
  };
  run.sessions.reserve(sessions.size());
  for (const SessionReceipt& s : sessions) {
    std::string line = session_line(s.client, s.records, s.predicted,
                                    s.confidence, s.start_s, s.end_s,
                                    s.detected_s);
    if (rate > 0.0 && !std::binary_search(oracle.at_close.begin(),
                                          oracle.at_close.end(), line)) {
      time_verdict(s.recv_ns, s.detected_s);
    }
    run.sessions.push_back(std::move(line));
  }
  std::sort(run.sessions.begin(), run.sessions.end());
  if (rate > 0.0) {
    for (const ProvisionalReceipt& p : provisionals) {
      time_verdict(p.recv_ns, p.last_activity_s);
    }
  }
  std::stable_sort(timed.begin(), timed.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  run.latency_us.reserve(timed.size());
  for (const auto& [recv_ns, latency_us] : timed) {
    run.latency_us.push_back(latency_us);
  }
  return run;
}

void check_run(const EngineRun& run, const Oracle& oracle,
               const std::string& what, Report& report) {
  report.attempted(run.offered + oracle.sessions.size());
  const std::uint64_t processed = run.stats.records_processed;
  report.fail(run.offered > processed ? run.offered - processed
                                      : processed - run.offered,
              what + ": records offered != records processed");
  if (run.sessions != oracle.sessions) {
    report.fail(multiset_difference(run.sessions, oracle.sessions),
                what + ": session multiset differs from the single-thread "
                       "monitor's");
  }
  report.fail(run.provisionals > oracle.provisionals
                  ? run.provisionals - oracle.provisionals
                  : oracle.provisionals - run.provisionals,
              what + ": provisional estimate count differs");
  report.check(run.alerts == oracle.alerts,
               what + ": alert sequence differs");
  report.check(run.dropped_intervals == 0,
               what + ": telemetry dropped intervals");
}

}  // namespace droppkt::benchmark
