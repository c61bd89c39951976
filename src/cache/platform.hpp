// Platform models for the 1B-2 evaluation.
//
// The paper evaluates write-back compression on two machines: the Lx-ST200
// (a 4-issue VLIW with an on-chip D-cache and an external SDRAM) and a MIPS
// RISC simulated with SimpleScalar. Neither platform is available, so this
// module substitutes parameter sets that preserve what the result actually
// depends on: the D-cache geometry (which sets the write-back/refill
// traffic) and the on-chip vs off-chip energy ratio. The VLIW set has the
// wider, hungrier external interface and the larger line; the RISC set is
// the smaller, narrower configuration.
#pragma once

#include <string>

#include "cache/memsys.hpp"

namespace memopt {

/// A named compressed-memory platform configuration.
struct PlatformModel {
    std::string name;
    std::string description;
    CompressedMemConfig config;
};

/// Lx-ST200-class VLIW platform (32 B lines, 4-way, wide external bus).
PlatformModel vliw_platform();

/// MIPS/SimpleScalar-class RISC platform (16 B lines, 2-way, narrower bus).
PlatformModel risc_platform();

}  // namespace memopt
