// Compatibility names for the hash types that moved to util/hash.h.
#pragma once

#include "util/hash.h"

namespace desync::flowdb {
using util::CacheKey;
using util::Fnv64;
using util::KeyHasher;
}  // namespace desync::flowdb
