// Lightweight precondition / invariant checking.
//
// The library throws std::logic_error for programmer errors (bad shapes,
// invalid configs) so that tests can assert on failure modes, per the
// Core Guidelines preference for detectable contract violations over UB.
#pragma once

#include <stdexcept>
#include <string>

namespace topick {

inline void require(bool condition, const std::string& message) {
  if (!condition) throw std::logic_error(message);
}

// A literal message builds no std::string unless the check fails, so hot
// paths (Rng::uniform_index) can check on every call.
inline void require(bool condition, const char* message) {
  if (!condition) throw std::logic_error(message);
}

}  // namespace topick
