#include "util/common.hpp"

namespace bfc {

void require_fail(const char* msg) { throw std::invalid_argument(msg); }

}  // namespace bfc
