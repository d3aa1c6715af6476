// True positive: library code printing to stdout.
#include <iostream>
void f() { std::cout << 1; }  // must fire
