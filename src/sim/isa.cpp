#include "src/sim/isa.hpp"

#include <cstdlib>

namespace efd::sim::isa {

bool available(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2: {
#if defined(__x86_64__) || defined(_M_X64)
      static const bool ok =
          __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
      return ok;
#else
      return false;
#endif
    }
    case Level::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

namespace {
/// The widest vector unit wins; scalar is the floor.
Level best() {
  if (available(Level::kAvx2)) return Level::kAvx2;
  if (available(Level::kNeon)) return Level::kNeon;
  return Level::kScalar;
}
}  // namespace

Level resolve(std::string_view want) {
  if (want == "scalar") return Level::kScalar;
  if (want == "avx2" && available(Level::kAvx2)) return Level::kAvx2;
  if (want == "neon" && available(Level::kNeon)) return Level::kNeon;
  // "auto", "", unrecognized names and unavailable levels.
  return best();
}

Level active() {
  static const Level level = [] {
    const char* env = std::getenv("EFD_SIMD");
    return resolve(env != nullptr ? env : "auto");
  }();
  return level;
}

}  // namespace efd::sim::isa
