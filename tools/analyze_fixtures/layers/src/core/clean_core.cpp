// Must not fire: core may include ml, util and itself.
#include "ml/dataset.hpp"
#include "util/stats.hpp"
#include "core/tls_features.hpp"
