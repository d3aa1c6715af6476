// Must not fire: this comment mentions assert(x) and <cassert>.
const char* s = "assert(";
void g(int x) { static_assert(sizeof(int) >= 4); (void)x; }
