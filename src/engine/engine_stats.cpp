#include "engine/engine_stats.hpp"

#include <cstdio>

namespace droppkt::engine {

std::string EngineStatsSnapshot::to_string() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "shard   enqueued  processed  watermarks  sessions   dropped"
                "  depth  high-water\n");
  out += line;
  for (const auto& s : shards) {
    std::snprintf(line, sizeof(line),
                  "%5zu %10llu %10llu %11llu %9llu %9llu %6zu %11zu\n",
                  s.shard, static_cast<unsigned long long>(s.enqueued),
                  static_cast<unsigned long long>(s.records),
                  static_cast<unsigned long long>(s.watermarks),
                  static_cast<unsigned long long>(s.sessions),
                  static_cast<unsigned long long>(s.dropped), s.queue_depth,
                  s.queue_high_water);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %llu ingested, %llu processed, %llu dropped, "
                "%llu sessions, %llu provisionals\n",
                static_cast<unsigned long long>(records_ingested),
                static_cast<unsigned long long>(records_processed),
                static_cast<unsigned long long>(records_dropped),
                static_cast<unsigned long long>(sessions_reported),
                static_cast<unsigned long long>(provisionals_reported));
  out += line;
  std::snprintf(line, sizeof(line),
                "lifecycle: %llu clients evicted, %llu noise sessions "
                "dropped\n",
                static_cast<unsigned long long>(clients_evicted),
                static_cast<unsigned long long>(sessions_noise_dropped));
  out += line;
  std::snprintf(line, sizeof(line),
                "interned: %zu clients, %zu SNIs across shard pools\n",
                interned_clients, interned_snis);
  out += line;
  std::snprintf(line, sizeof(line),
                "enqueue-to-observed latency: p50 %.1f us, p99 %.1f us\n",
                latency_p50_us, latency_p99_us);
  out += line;
  if (alerting) {
    std::snprintf(line, sizeof(line),
                  "alerting: %llu transitions, %llu suppressed, "
                  "%llu raised, %llu cleared\n",
                  static_cast<unsigned long long>(verdict_transitions),
                  static_cast<unsigned long long>(verdicts_suppressed),
                  static_cast<unsigned long long>(alerts_raised),
                  static_cast<unsigned long long>(alerts_cleared));
    out += line;
  }
  return out;
}

}  // namespace droppkt::engine
