// Tool version identity.
//
// Stamped into `--report` JSON, printed by `drdesync --version` and mixed
// into the guard key of every FlowDB ECO table — so state produced by a
// different build of the tool is never reused, it is recomputed and
// re-cached.
#pragma once

#include <string_view>

namespace desync::core {

inline constexpr std::string_view kToolVersion = "0.3.0";

}  // namespace desync::core
