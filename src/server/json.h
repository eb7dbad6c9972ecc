// Compatibility names for the JSON types that moved to util/json.h.
#pragma once

#include "util/json.h"

namespace desync::server {
using util::Json;
using util::JsonError;
}  // namespace desync::server
