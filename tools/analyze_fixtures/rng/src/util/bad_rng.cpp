// True positive: an unseeded C library generator.
int bad() { return rand() % 7; }  // must fire
