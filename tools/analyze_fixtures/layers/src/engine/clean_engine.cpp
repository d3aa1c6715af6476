// Must not fire: the ingest hot path's downward edges (engine -> core
// monitor / POD records, engine -> util interner / mailbox).
#include "core/monitor.hpp"
#include "core/tls_record.hpp"
#include "util/spsc_queue.hpp"
#include "util/string_pool.hpp"
#include "engine/alert_sink.hpp"
