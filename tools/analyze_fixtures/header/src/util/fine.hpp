// Must not fire: compiles on its own.
#pragma once

inline int forty_two() { return 42; }
