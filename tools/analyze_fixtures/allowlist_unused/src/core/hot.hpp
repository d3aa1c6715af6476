// Allowlist hygiene: fill()'s push_back is covered by a used entry; the
// entry for emit() is stale, because emit() no longer allocates.
#pragma once

#include <vector>

#define DROPPKT_NOALLOC

namespace fix {

class Buffer {
 public:
  DROPPKT_NOALLOC void fill(int v) {
    items_.push_back(v);  // allowlisted: quiet
    emit();
  }

 private:
  void emit() { last_ = items_.back(); }

  std::vector<int> items_;
  int last_ = 0;
};

}  // namespace fix
