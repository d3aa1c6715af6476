// True positive: a contract that vanishes under NDEBUG.
#include <cassert>  // must fire
void f(int x) { assert(x > 0); }  // must fire
