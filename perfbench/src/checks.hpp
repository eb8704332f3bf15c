// Output checks: every operation a workload attempts is counted, and one
// that fails, is rejected or returns a wrong result counts as failed.
#pragma once

#include <mutex>
#include <string>

#include "support/types.hpp"

namespace perfbench {

class Checks {
 public:
  /// Count one attempted operation; when `ok` is false it counts as
  /// failed and `what` is printed to stderr.
  void op(bool ok, const std::string& what);

  eclp::u64 attempted() const;
  eclp::u64 failed() const;
  double failed_frac() const;
  /// 0 when every operation passed, 3 otherwise.
  int exit_code() const { return failed() == 0 ? 0 : 3; }

 private:
  mutable std::mutex mutex_;
  eclp::u64 attempted_ = 0;
  eclp::u64 failed_ = 0;
};

}  // namespace perfbench
