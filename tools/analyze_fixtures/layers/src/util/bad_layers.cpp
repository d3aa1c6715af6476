// True positive: util is the DAG's root and includes no other layer.
#include "engine/engine.hpp"
