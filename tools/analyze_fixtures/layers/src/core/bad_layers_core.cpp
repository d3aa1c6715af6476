// True positive: the reversed core -> engine edge.
#include "engine/engine.hpp"
