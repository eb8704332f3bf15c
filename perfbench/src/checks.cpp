#include "checks.hpp"

#include <cstdio>

namespace perfbench {

void Checks::op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (!ok) {
    std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
  }
  ++attempted_;
  if (!ok) ++failed_;
}

eclp::u64 Checks::attempted() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return attempted_;
}

eclp::u64 Checks::failed() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return failed_;
}

double Checks::failed_frac() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

}  // namespace perfbench
