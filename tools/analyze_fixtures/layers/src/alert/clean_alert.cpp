// Must not fire: alert may include engine, core and itself.
#include "engine/alert_sink.hpp"
#include "core/estimator.hpp"
#include "alert/session_filter.hpp"
