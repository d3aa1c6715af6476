// Must not fire: this comment mentions std::cout, and fatal
// diagnostics may go to std::cerr.
#include <iostream>
const char* s = "std::cout";
void die() { std::cerr << "fatal\n"; }
