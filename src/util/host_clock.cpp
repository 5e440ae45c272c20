#include "util/host_clock.hpp"

#include <chrono>

namespace hcs::util {

double host_seconds() {
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(since_epoch).count();
}

}  // namespace hcs::util
