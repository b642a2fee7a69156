#include "common/error.h"

#include <cstdlib>
#include <iostream>

namespace paserta::detail {

[[noreturn]] void throw_error(const std::string& msg) { throw Error(msg); }

[[noreturn]] void fail_assert(const char* file, int line, const char* expr,
                              const std::string& msg) {
  std::cerr << "paserta internal assertion failed: " << expr << "\n  " << msg
            << "\n  at " << file << ":" << line << std::endl;
  std::abort();
}

}  // namespace paserta::detail
