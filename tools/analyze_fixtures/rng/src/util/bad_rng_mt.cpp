// True positive: a default-constructed engine has a fixed, implicit seed.
#include <random>
std::mt19937 gen;  // must fire
