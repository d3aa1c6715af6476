// Must not fire: this comment mentions rand() and srand(7).
const char* s = "rand( srand(";
struct Operand { int operand; };  // identifiers containing "rand"
