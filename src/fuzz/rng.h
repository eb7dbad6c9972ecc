// Compatibility name for the RNG that moved to util/rng.h.
#pragma once

#include "util/rng.h"

namespace desync::fuzz {
using util::Rng;
}  // namespace desync::fuzz
